"""Parsers, the command line and canonical forms on generated input:
each parser raises only its documented error, `cli.main` on any file
contents exits with a documented code and at most one line of
diagnostics, and relabeled copies of a code share its canonical form."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from semiquandles.algebra import AxiomError, StructureError, parse_table_text
from semiquandles.cli import main
from semiquandles.diagram import _ROLES, CodeError, Pass, PassCode, parse_code
from semiquandles.moves import canonical
from semiquandles.present import PresentationError, parse_presentation

# derandomized and without an example database, so runs repeat exactly
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# Hypothesis still caches the constants it reads from the source, when
# tests are collected; keep that cache in a directory removed at exit
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)


def lines(line):
    return st.lists(line, max_size=8).map("\n".join)


def words(*pieces):
    return st.lists(st.sampled_from(pieces) | st.text(max_size=4),
                    max_size=10).map(" ".join)


# near-misses of each grammar, mixed with free text
TABLE_TEXT = st.one_of(
    st.text(),
    st.tuples(st.sampled_from(["semiquandle", "semiquandle 1", "semiquandle 2",
                               "semiquandle 2 singular", "semiquandle 2 virtual",
                               "semiquandle 0", "semiquandle x", ""]),
              lines(words("1", "2", "3", "0", "-1", "v:", "x"))).map("\n".join))
CODE_TEXT = st.one_of(
    st.text(),
    lines(words("comp:", "F1.sup", "F1.sub", "S1.sup", "S1.sub", "V1.v+",
                "V1.v-", "C1.over+", "C1.under+", "C1.under-", "F1.sup+",
                "F2.sup", "F2.sub", "#")))
PRESENTATION_TEXT = st.one_of(
    st.text(),
    lines(words("gens:", "a", "b", "up(a,b)=c", "dn(b,a)=a", "hup(a,a)=b",
                "hdn(a,b)=a", "v(a)=b", "v(b)=a", ";", "up(a)=b", "#")))


@st.composite
def relabeled_codes(draw):
    """A valid code of at most 6 F/S/V/C crossings on at most 5
    components, and a copy with its components reordered and rotated and
    each kind's crossings renumbered."""
    kinds = draw(st.lists(st.sampled_from("FSVC"), max_size=6))
    passes = [Pass(kind, kinds[:n].count(kind) + 1, role, sign)
              for n, kind in enumerate(kinds)
              for sign in [draw(st.sampled_from((1, -1))) if kind == "C" else 0]
              for role in _ROLES[kind]]
    passes = draw(st.permutations(passes))
    cuts = sorted(draw(st.lists(st.integers(0, len(passes)), max_size=4)))
    bounds = [0, *cuts, len(passes)]
    comps = [passes[a:b] for a, b in zip(bounds, bounds[1:])]
    ids = {(kind, a): b for kind in "FSVC"
           for a, b in enumerate(draw(st.permutations(range(1, kinds.count(kind) + 1))), 1)}
    twin = []
    for c in draw(st.permutations(comps)):
        k = draw(st.integers(0, max(len(c) - 1, 0)))
        twin.append([Pass(p.kind, ids[p.crossing], p.role, p.sign) for p in c[k:] + c[:k]])
    return PassCode(comps), PassCode(twin)


@FUZZ
@given(relabeled_codes())
def test_relabeled_codes_share_one_canonical_form(pair):
    code, twin = pair
    form = canonical(code)
    assert canonical(twin) == form
    assert canonical(form) == form
    assert sorted(map(len, form.components)) == sorted(map(len, code.components))
    # the code numbers each kind's crossings from 1, as forms do
    assert sorted(form.crossings()) == sorted(code.crossings())


@FUZZ
@given(TABLE_TEXT)
def test_parse_table_text_raises_only_documented_errors(text):
    try:
        parse_table_text(text)
    except (StructureError, AxiomError):
        pass


@FUZZ
@given(CODE_TEXT)
def test_parse_code_raises_only_code_errors(text):
    try:
        parse_code(text)
    except CodeError:
        pass


@FUZZ
@given(PRESENTATION_TEXT)
def test_parse_presentation_raises_only_presentation_errors(text):
    try:
        parse_presentation(text)
    except PresentationError:
        pass


# each verb that reads a file, with {} standing for the generated file
FILE_VERBS = (
    ("verify", "--table", "{}"),
    ("poly", "--table", "{}", "--builtin", "unknot"),
    ("count", "--table", "t4_sing", "--code", "{}", "--budget", "2000"),
    ("poly", "--table", "ts3_v13", "--presentation", "{}", "--budget", "2000"),
    ("vassiliev", "--k1", "{}", "--k2", "{}", "--probes", "t4_sing",
     "--budget", "2000"),
)


@FUZZ
@given(st.sampled_from(FILE_VERBS),
       st.one_of(TABLE_TEXT, CODE_TEXT, PRESENTATION_TEXT).map(str.encode)
       | st.binary(max_size=40))
def test_cli_on_any_file_contents_exits_with_a_documented_code(argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([str(path) if a == "{}" else a for a in argv])
    assert rc in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1

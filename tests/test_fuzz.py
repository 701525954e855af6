"""Parsers and the command line on generated input: each parser raises
only its documented error, and `cli.main` on any file contents exits
with a documented code and at most one line of diagnostics."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from semiquandles.algebra import AxiomError, StructureError, parse_table_text
from semiquandles.cli import main
from semiquandles.diagram import CodeError, parse_code
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

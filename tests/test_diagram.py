"""Pass codes: parsing, relation extraction, and crossing resolution."""

import random

import pytest

from semiquandles.algebra import BUILTIN_BUNDLES, builtin_bundle
from semiquandles.diagram import (
    _ROLES, BUILTIN_CODES, Pass, PassCode, CodeError, parse_code, unknot,
    extract_relations, flatten, smooth_at, glue_at, glue_kink,
    disjoint_unknot, builtin_code,
)
from semiquandles.present import (Presentation, Relation,
                                  builtin as builtin_presentation,
                                  count_colorings, enhanced_invariant,
                                  parse_presentation)


def test_parse_and_text_round_trip():
    for name in ("singular_unknot_1", "triple_crazy_trefoil",
                  "flat_virtual_hopf", "flat_kishino", "unknot", "unlink_2"):
        code = builtin_code(name)
        assert parse_code(code.text()) == code


def test_parse_rejects_bad_occurrences():
    # flat crossing must occur once as sup and once as sub
    with pytest.raises(CodeError):
        parse_code("comp: F1.sup F1.sup\n")
    with pytest.raises(CodeError):
        parse_code("comp: F1.sup\n")
    # virtual crossing needs one v+ and one v-
    with pytest.raises(CodeError):
        parse_code("comp: V1.v+ V1.v+\n")
    # classical signs must agree at both passes
    with pytest.raises(CodeError):
        parse_code("comp: C1.over+ C1.under-\n")
    with pytest.raises(CodeError):
        parse_code("bad line\n")
    # passes built directly, past the parser: a role of another kind, and
    # a sign tag on a flat pass
    with pytest.raises(CodeError, match="bad pass"):
        PassCode(((Pass("F", 1, "over"), Pass("F", 1, "sub")),))
    with pytest.raises(CodeError, match="sign tag mismatch on F1.sup"):
        PassCode(((Pass("F", 1, "sup", 1), Pass("F", 1, "sub", 1)),))


def test_crossings_are_listed_once_in_first_appearance_order():
    code = parse_code("comp: F2.sup F2.sub V1.v+\ncomp: F1.sup\n"
                      "comp: V1.v- F1.sub S1.sup S1.sub\n")
    assert code.crossings() == [("F", 2), ("V", 1), ("F", 1), ("S", 1)]
    assert code.crossing_count() == 4 and code.crossing_count("F") == 2
    assert unknot().crossings() == []


def _scanned(code):
    """The crossing map found by scanning the code pass by pass."""
    where = {}
    for ci, comp in enumerate(code.components):
        for i, p in enumerate(comp):
            where.setdefault(p.crossing, []).append((ci, i, p))
    return where


def _oracle_relations(code):
    """Extraction by a label per (component, pass index) and the crossings
    popped from a scanned position map in traversal order."""
    labels = {}
    for ci, comp in enumerate(code.components):
        for i in range(max(len(comp), 1)):
            labels[ci, i] = f"s{len(labels)}"

    def in_label(ci, i):
        return labels[ci, (i - 1) % len(code.components[ci])]

    positions, relations = _scanned(code), []
    for comp in code.components:
        for p in comp:
            ps = positions.pop(p.crossing, None)
            if ps is None:
                continue
            if p.kind == "V":
                for ci, i, q in ps:
                    a, a_out = in_label(ci, i), labels[ci, i]
                    relations.append(Relation("v", (a,), a_out) if q.role == "v+"
                                     else Relation("v", (a_out,), a))
                continue
            (ci1, i1, p1), (ci2, i2, _) = ps
            if p1.role != "sup":
                (ci1, i1), (ci2, i2) = (ci2, i2), (ci1, i1)
            a, a_out = in_label(ci1, i1), labels[ci1, i1]
            b, b_out = in_label(ci2, i2), labels[ci2, i2]
            op_sup, op_sub = ("up", "dn") if p.kind == "F" else ("hup", "hdn")
            relations.append(Relation(op_sup, (a, b), a_out))
            relations.append(Relation(op_sub, (b, a), b_out))
    return Presentation(tuple(labels[k] for k in sorted(labels)), tuple(relations))


def _random_code(seed):
    """A seeded F/S/V code of at most 6 crossings on 1-4 components, some
    of them kinks (both passes adjacent), some components free loops."""
    rng = random.Random(seed)
    segments = []
    for cid in range(1, rng.randint(0, 6) + 1):
        kind = rng.choice("FSV")
        roles = list(_ROLES[kind])
        rng.shuffle(roles)
        passes = [Pass(kind, cid, role) for role in roles]
        segments += [passes] if rng.random() < 0.25 else [[q] for q in passes]
    rng.shuffle(segments)
    comps = [[] for _ in range(rng.randint(1, 4))]
    for seg in segments:
        comps[rng.randrange(len(comps))] += seg
    return PassCode(comps)


RANDOM_CODES = [_random_code(seed) for seed in range(600)]


def test_random_codes_cover_loops_kinks_and_links():
    kinks = sum(any(a.crossing == b.crossing for a, b in zip(c, c[1:]))
                for code in RANDOM_CODES for c in code.components)
    loops = sum(not c for code in RANDOM_CODES for c in code.components)
    assert kinks > 50 and loops > 50
    assert {len(code.components) for code in RANDOM_CODES} == {1, 2, 3, 4}
    assert {k for code in RANDOM_CODES for k, _ in code.where} == {"F", "S", "V"}


def test_extract_relations_matches_the_scanning_oracle():
    codes = [builtin_code(name) for name in BUILTIN_CODES] + [unknot(3)] + RANDOM_CODES
    for code in codes:
        got, want = extract_relations(code), _oracle_relations(code)
        assert got.generators == want.generators, code.text()
        assert got.relations == want.relations, code.text()


def test_where_holds_each_crossing_once_in_first_appearance_order():
    code = parse_code("comp: F2.sup V1.v+\ncomp:\ncomp: V1.v- S1.sub S1.sup F2.sub\n")
    assert list(code.where.items()) == [
        (("F", 2), [(0, 0, Pass("F", 2, "sup")), (2, 3, Pass("F", 2, "sub"))]),
        (("V", 1), [(0, 1, Pass("V", 1, "v+")), (2, 0, Pass("V", 1, "v-"))]),
        (("S", 1), [(2, 1, Pass("S", 1, "sub")), (2, 2, Pass("S", 1, "sup"))]),
    ]
    for code in RANDOM_CODES:
        assert list(code.where.items()) == list(_scanned(code).items())
        assert code.crossings() == list(code.where)
    # the map takes no part in equality, hashing or the repr
    code, twin = builtin_code("flat_kishino"), builtin_code("flat_kishino")
    assert twin == code and hash(twin) == hash(code) and twin.where is not code.where
    assert "where" not in repr(code)
    assert unknot(2).where == {}


def test_extract_relations_counts():
    # c flat+singular crossings and w virtual passes give 2c + w
    # relations and 2c + w generators
    for text, c, w in (
        ("comp: F1.sup F2.sup F1.sub F2.sub\n", 2, 0),
        ("comp: S1.sup S1.sub\n", 1, 0),
        ("comp: F1.sup V1.v+\ncomp: F1.sub V1.v-\n", 1, 2),
        ("comp: S1.sup F1.sub S1.sub F1.sup\n", 2, 0),
    ):
        p = extract_relations(parse_code(text))
        assert len(p.relations) == 2 * c + w
        assert len(p.generators) == 2 * c + w


# hand-written fundamental presentations, the oracle for the relations
# extracted from the builtin codes of the same names
HAND_WRITTEN = {
    # two two-crossing halves joined in a single 8-semiarc cycle a..h
    "flat_kishino": """\
gens: a b c d e f g h
up(a,c)=b; dn(c,a)=d; up(b,d)=c; dn(d,b)=e
up(e,g)=f; dn(g,e)=h; up(f,h)=g; dn(h,f)=a
""",
    "triple_crazy_trefoil": """\
gens: a b c d
hup(a,c)=b; hdn(c,a)=d; up(d,b)=a; dn(b,d)=c
""",
    "singular_unknot_1": """\
gens: a b
hup(a,b)=b; hdn(b,a)=a
""",
}


def test_extract_relations_matches_builtin_presentations():
    compared = 0
    for name, text in HAND_WRITTEN.items():
        oracle = parse_presentation(text)
        for bundle_name in BUILTIN_BUNDLES:
            bundle = builtin_bundle(bundle_name)
            if not oracle.kinds_used() <= set(bundle.ops):
                continue
            assert (enhanced_invariant(builtin_presentation(name), bundle)
                    == enhanced_invariant(oracle, bundle)), (name, bundle_name)
            compared += 1
    # flat_kishino over all five bundles, the singular codes over two
    assert compared == 9


def test_unknot_helper():
    assert unknot().semiarc_count() == 1
    assert unknot(3).semiarc_count() == 3


def test_flatten_forgets_over_under():
    k = parse_code("comp: C1.over+ C2.under- C1.under+ C2.over-\n")
    flat = flatten(k)
    assert flat.crossing_count("F") == 2
    assert flat.crossing_count("C") == 0
    roles = {(p.cid, p.role) for p in flat.passes()}
    assert (1, "sup") in roles and (1, "sub") in roles


def test_smooth_at_splits_knot_into_two_components():
    kink = parse_code("comp: C1.over+ C1.under+\n")
    out = smooth_at(kink, 1)
    assert len(out.components) == 2
    assert out.crossing_count() == 0
    tref = parse_code(
        "comp: C1.over+ C2.under+ C3.over+ C1.under+ C2.over+ C3.under+\n")
    out = smooth_at(tref, 2)
    assert len(out.components) == 2
    assert out.crossing_count() == tref.crossing_count() - 1
    assert out.crossing_count("C") == 0


def test_smooth_at_errors():
    with pytest.raises(CodeError):
        smooth_at(parse_code("comp: F1.sup F1.sub\n"), 1)   # not classical
    with pytest.raises(CodeError):
        smooth_at(parse_code("comp: C1.over+ C1.under+\n"), 9)
    link = parse_code("comp: C1.over+\ncomp: C1.under+\n")
    with pytest.raises(CodeError):
        smooth_at(link, 1)   # not a self-crossing


def test_glue_at_marks_one_crossing_singular():
    tref = parse_code(
        "comp: C1.over+ C2.under+ C3.over+ C1.under+ C2.over+ C3.under+\n")
    out = glue_at(tref, 2)
    assert len(out.components) == 1
    assert out.crossing_count("S") == 1
    assert out.crossing_count("F") == 2
    assert out.crossing_count("C") == 0


@pytest.mark.parametrize("resolve, text, message", [
    (flatten, "comp: C1.over+ F1.sup C1.under+ F1.sub\n",
     "flatten would collide C1 with F1"),
    # collisions are found in traversal order
    (flatten, "comp: C3.over+ C2.over+ F2.sup F3.sup C2.under+ C3.under+ F2.sub F3.sub\n",
     "flatten would collide C3 with F3"),
    (lambda code: glue_at(code, 2), "comp: C1.over+ C1.under+\n",
     "no classical crossing C2"),
    (lambda code: glue_at(code, 2), "comp: C1.over+ S2.sup C1.under+ S2.sub\n",
     "no classical crossing C2"),
    (lambda code: glue_at(code, 1), "comp: C1.over+ S1.sup C1.under+ S1.sub\n",
     "glue would collide C1 with S1"),
    # the singular collision is found before any flat one
    (lambda code: glue_at(code, 1),
     "comp: C1.over+ S1.sup C2.over+ F2.sup C1.under+ S1.sub C2.under+ F2.sub\n",
     "glue would collide C1 with S1"),
    # a flat collision of another crossing surfaces after the glue
    (lambda code: glue_at(code, 1), "comp: C1.over+ C2.over+ F2.sup C1.under+ C2.under+ F2.sub\n",
     "flatten would collide C2 with F2"),
], ids=["flatten", "flatten-order", "glue-missing", "glue-missing-singular",
        "glue-singular", "glue-singular-before-flat", "glue-then-flat"])
def test_resolution_errors_are_pinned(resolve, text, message):
    with pytest.raises(CodeError) as e:
        resolve(parse_code(text))
    assert str(e.value) == message


def test_glue_at_makes_a_crossing_singular_beside_a_flat_one_of_its_id():
    out = glue_at(parse_code("comp: C1.over- F1.sup C1.under- F1.sub\n"), 1)
    assert out == parse_code("comp: S1.sup F1.sup S1.sub F1.sub\n")


def test_glue_kink_of_unknot_is_the_singular_kink():
    out = glue_kink(parse_code("comp:\n"))
    assert out == builtin_code("singular_unknot_1")


def test_glue_kink_validated_by_nine_colorings():
    ca3_op = builtin_bundle("ca3_op")
    r = enhanced_invariant(extract_relations(glue_kink(parse_code("comp:\n"))),
                           ca3_op)
    assert r.polynomial == "9z^3"


def test_disjoint_unknot_adds_one_empty_component():
    k = builtin_code("flat_kishino")
    out = disjoint_unknot(k)
    assert len(out.components) == len(k.components) + 1
    assert out.crossing_count() == k.crossing_count()


def test_flat_virtual_hopf_distinguished_from_unlink():
    ts3 = builtin_bundle("ts3_v13")
    hopf = enhanced_invariant(extract_relations(builtin_code("flat_virtual_hopf")), ts3)
    unlink = enhanced_invariant(extract_relations(builtin_code("unlink_2")), ts3)
    assert hopf.polynomial != unlink.polynomial
    # values pinned by the naive oracle, not trusted from any external text
    assert unlink.polynomial == "z + 4z^2 + 4z^3"


def test_flat_kishino_code_reproduces_presentation_count():
    t4 = builtin_bundle("t4")
    p = extract_relations(builtin_code("flat_kishino"))
    assert count_colorings(p, t4) == 16

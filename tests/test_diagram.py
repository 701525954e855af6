"""Pass codes: parsing, relation extraction, and crossing resolution."""

import pytest

from semiquandles.algebra import BUILTIN_BUNDLES, builtin_bundle
from semiquandles.diagram import (
    Pass, PassCode, CodeError, parse_code, unknot, extract_relations,
    flatten, smooth_at, glue_at, glue_kink, disjoint_unknot,
    builtin_code,
)
from semiquandles.present import (builtin as builtin_presentation,
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


def test_crossings_are_listed_once_in_first_appearance_order():
    code = parse_code("comp: F2.sup F2.sub V1.v+\ncomp: F1.sup\n"
                      "comp: V1.v- F1.sub S1.sup S1.sub\n")
    assert code.crossings() == [("F", 2), ("V", 1), ("F", 1), ("S", 1)]
    assert code.crossing_count() == 4 and code.crossing_count("F") == 2
    assert unknot().crossings() == []


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

"""Axiom checkers, structure bundles, and the table text format."""

import itertools
import random

import pytest

from semiquandles.algebra import (
    _FLAT_AXIOMS, _HAT_AXIOMS,
    AxiomError, StructureError,
    SemiquandleTable, SingularExtension, VirtualExtension, StructureBundle,
    check_semiquandle, check_singular, check_virtual,
    subclosure, automorphisms,
    make_constant_action, make_operator_singular,
    trivial_singular, identity_perm, perm_from_cycles, perm_inverse,
    format_table_text, parse_table_text, builtin_bundle, BUILTIN_BUNDLES, Violation,
)
from semiquandles.diagram import Pass, PassCode, parse_code
from semiquandles.enumeration import CanonicalForm, enumerate_semiquandles
from semiquandles.moves import MoveSpec
from semiquandles.present import InvariantResult, Presentation, Relation
from semiquandles.vassiliev import Fingerprint

T4 = builtin_bundle("t4")
T4S = builtin_bundle("t4_sing")
CA3 = builtin_bundle("ca3")
TS3 = builtin_bundle("ts3_v13")


def test_t4_passes_semiquandle_axioms():
    assert check_semiquandle(T4.table.up, T4.table.dn) == []


def test_t4_block_matrix_passes_singular_axioms():
    assert check_singular(T4.table.up, T4.table.dn,
                          T4S.singular.hup, T4S.singular.hdn) == []


def test_ts3_with_v13_passes_virtual_axioms():
    assert check_virtual(TS3.table.up, TS3.table.dn, TS3.virtual.v) == []


def test_every_corruption_of_t4_first_row_fails_with_witness():
    up = [list(r) for r in T4.table.up]
    for j in range(4):
        for wrong in range(1, 5):
            if wrong == up[0][j]:
                continue
            bad = [row[:] for row in up]
            bad[0][j] = wrong
            report = check_semiquandle(tuple(map(tuple, bad)), T4.table.dn)
            assert report, f"corruption at (1,{j + 1}) -> {wrong} not caught"
            assert all(v.witness for v in report)


def test_every_catalog_axiom_is_reported_by_its_checker():
    # random tables with permutation columns break each flat axiom, and
    # random hat tables over t4 each hat axiom, so no entry of the
    # catalog is dead: dropping one loses its name from every report
    flat = [name for name, *_ in _FLAT_AXIOMS]
    hat = [name for name, *_ in _HAT_AXIOMS]
    assert flat == ["i", "ii.a", "ii.b", "iii.a", "iii.b", "iii.c"]
    assert hat == ["hi.a", "hi.b", "hii.a", "hii.b", "hii.c"]
    rng = random.Random(7)
    seen_flat, seen_hat = set(), set()
    for _ in range(40):
        up, dn = (tuple(zip(*(rng.sample(range(1, 4), 3) for _ in range(3))))
                  for _ in range(2))
        seen_flat |= {v.axiom for v in check_semiquandle(up, dn)}
        hup, hdn = (tuple(tuple(rng.randint(1, 4) for _ in range(4)) for _ in range(4))
                    for _ in range(2))
        seen_hat |= {v.axiom for v in check_singular(T4.table.up, T4.table.dn, hup, hdn)}
    assert seen_flat == set(flat)
    assert seen_hat == set(hat)


def restated_report(up, dn, hup=None, hdn=None) -> set:
    """The failed instances of axioms i to iii.c, or of hi.a to hii.c
    when hup and hdn are given, each axiom stated here as its own loop
    over the 1-based tables, apart from the catalog."""
    n = len(up)
    r = range(1, n + 1)

    def u(x, y):
        return up[x - 1][y - 1]

    def d(x, y):
        return dn[x - 1][y - 1]

    def H(x, y):
        return hup[x - 1][y - 1]

    def K(x, y):
        return hdn[x - 1][y - 1]
    report = set()
    for x, y in itertools.product(r, repeat=2):
        if hup is None:
            pairs = {"i": (d(x, y) == y) == (u(y, x) == x),
                     "ii.a": u(d(x, y), u(y, x)) == x,
                     "ii.b": d(u(x, y), d(y, x)) == x}
        else:
            pairs = {"hi.a": H(d(y, x), u(x, y)) == u(K(y, x), H(x, y)),
                     "hi.b": K(u(x, y), d(y, x)) == d(H(x, y), K(y, x))}
        report |= {(name, (x, y)) for name, holds in pairs.items() if not holds}
        for z in r:
            if hup is None:
                triples = {
                    "iii.a": u(u(x, y), z) == u(u(x, d(z, y)), u(y, z)),
                    "iii.b": u(d(y, x), d(z, u(x, y))) == d(u(y, z), u(x, d(z, y))),
                    "iii.c": d(d(z, u(x, y)), d(y, x)) == d(d(z, y), x)}
            else:
                triples = {
                    "hii.a": H(u(x, y), z) == u(H(x, d(z, y)), u(y, z)),
                    "hii.b": u(d(y, x), K(z, u(x, y))) == d(u(y, z), H(x, d(z, y))),
                    "hii.c": d(K(z, u(x, y)), d(y, x)) == K(d(z, y), x)}
            report |= {(name, (x, y, z)) for name, holds in triples.items() if not holds}
    return report


def test_checkers_agree_with_the_axioms_restated_apart_from_the_catalog():
    # random tables of orders 2 to 4 with permutation columns (so axiom 0
    # holds) and random hat tables over t4 and each order-3 class
    def reported(report):
        return {(v.axiom, v.witness) for v in report}
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(30):
            up, dn = (tuple(zip(*(rng.sample(range(1, n + 1), n) for _ in range(n))))
                      for _ in range(2))
            assert reported(check_semiquandle(up, dn)) == restated_report(up, dn)
    tables = [T4.table, *enumerate_semiquandles(3, up_to_iso=True)]
    for table in tables:
        n = table.n
        assert restated_report(table.up, table.dn) == set()
        for _ in range(30):
            hup, hdn = (tuple(tuple(rng.randint(1, n) for _ in range(n)) for _ in range(n))
                        for _ in range(2))
            assert (reported(check_singular(table.up, table.dn, hup, hdn))
                    == restated_report(table.up, table.dn, hup, hdn))


def test_constant_action_tables_satisfy_axioms():
    for sigma in itertools.permutations((1, 2, 3)):
        t = make_constant_action(3, sigma)
        assert check_semiquandle(t.up, t.dn) == []
    with pytest.raises(ValueError, match="sigma is not a permutation"):
        make_constant_action(3, (1, 1, 2))


def test_operator_and_flat_singular_extensions_are_compatible():
    for name in ("t4", "ca3"):
        table = builtin_bundle(name).table
        for ext in (make_operator_singular(table),
                    SingularExtension(table.up, table.dn)):
            assert check_singular(table.up, table.dn, ext.hup, ext.hdn) == []


def test_trivial_singular_requires_up_equals_dn():
    # hi reduces to dn(y,x) = up(y,x) under the trivial hat operations, so
    # only tables with up = dn accept it
    triv = trivial_singular(3)
    assert check_singular(TS3.table.up, TS3.table.dn, triv.hup, triv.hdn) == []
    bad = check_singular(T4.table.up, T4.table.dn,
                         trivial_singular(4).hup, trivial_singular(4).hdn)
    assert bad


def test_bundle_construction_rejects_axiom_violations():
    with pytest.raises(AxiomError):
        StructureBundle(T4.table, trivial_singular(4))
    with pytest.raises(AxiomError):
        StructureBundle(T4.table, virtual=VirtualExtension((2, 1, 3, 4)))


def test_bundle_rejects_order_mismatch():
    with pytest.raises(StructureError):
        StructureBundle(T4.table, trivial_singular(3))
    with pytest.raises(StructureError, match="virtual extension order mismatch"):
        StructureBundle(T4.table, virtual=VirtualExtension((1, 2, 3)))
    with pytest.raises(StructureError, match=r"structure@\('dn', 'rows', 2\)"):
        SemiquandleTable(((1,),), ((1,), (1,)))


def test_constructors_reject_non_integer_entries():
    # an entry is taken as given, never coerced, so 1.9, "1" and True are
    # not read as the order-1 table's entry 1
    with pytest.raises(StructureError):
        SemiquandleTable(((1.9,),), (("1",),))
    with pytest.raises(StructureError):
        SemiquandleTable(((True,),), ((1,),))
    one = SemiquandleTable(((1,),), ((1,),))
    with pytest.raises(StructureError):
        StructureBundle(one, SingularExtension(((1.0,),), ((1,),)))
    with pytest.raises(StructureError):
        StructureBundle(one, virtual=VirtualExtension(("1",)))
    with pytest.raises(StructureError):
        StructureBundle(T4.table, virtual=VirtualExtension(("1", 2, 3, 4)))


def test_table_rejects_non_permutation_columns():
    with pytest.raises((AxiomError, StructureError)):
        SemiquandleTable(((1, 1), (1, 1)), ((1, 2), (2, 1)))


def test_compiled_operations_are_zero_based_tables_of_present_extensions():
    for name in BUILTIN_BUNDLES:
        b = builtin_bundle(name)
        ops = b.ops
        assert ops is b.ops
        want = {"up", "dn"}
        blocks = {"up": b.table.up, "dn": b.table.dn}
        if b.has_singular:
            want |= {"hup", "hdn"}
            blocks.update(hup=b.singular.hup, hdn=b.singular.hdn)
        if b.has_virtual:
            want.add("v")
            assert [x + 1 for x in ops["v"]] == list(b.virtual.v)
        assert set(ops) == want
        for op, block in blocks.items():
            assert ops[op] == tuple(tuple(x - 1 for x in row) for row in block)


def test_subclosure_is_closed_and_minimal():
    sub = subclosure(T4S, {1})
    for x in sub:
        for y in sub:
            for op in ("up", "dn", "hup", "hdn"):
                assert T4S.ops[op][x - 1][y - 1] + 1 in sub
    assert 1 in sub


def test_automorphism_group_of_t4_sing():
    autos = automorphisms(T4S)
    assert (1, 2, 3, 4) in autos
    for a in autos:
        assert check_virtual(T4S.table.up, T4S.table.dn, a,
                             T4S.singular.hup, T4S.singular.hdn) == []


def test_perm_helpers():
    p = perm_from_cycles(3, [[1, 3, 2]])
    assert p == (3, 1, 2)
    assert perm_inverse(p) == (2, 3, 1)
    assert tuple(p[q - 1] for q in perm_inverse(p)) == (1, 2, 3)
    # an element outside 1..n, or an empty cycle, is not a permutation
    for cycles in ([[4]], [[1, 4]], [[]]):
        with pytest.raises(ValueError, match="cycles do not describe a permutation"):
            perm_from_cycles(3, cycles)


def test_table_text_round_trip():
    for name in BUILTIN_BUNDLES:
        b = builtin_bundle(name)
        assert parse_table_text(format_table_text(b)) == b
    with pytest.raises(KeyError, match="unknown builtin bundle 'nope'"):
        builtin_bundle("nope")


def test_parse_table_text_rejects_malformed_input():
    with pytest.raises(StructureError):
        parse_table_text("")
    with pytest.raises(StructureError):
        parse_table_text("semiquandle x\n1")
    with pytest.raises(StructureError):
        parse_table_text("semiquandle 2\n1 2\n2 1\n1 2")


def test_with_trivial_extensions_validates():
    lifted = TS3.with_trivial_extensions()
    assert lifted.has_singular and lifted.has_virtual
    assert lifted.singular == trivial_singular(3)
    assert lifted.virtual == TS3.virtual
    # the trivial hat operations break the hat axioms on t4, so t4 is
    # lifted by the virtual extension alone
    with pytest.raises(AxiomError):
        StructureBundle(T4.table, trivial_singular(4))
    lifted = T4.with_trivial_extensions()
    assert not lifted.has_singular and lifted.virtual.v == identity_perm(4)
    assert lifted.table == T4.table
    # a present extension is kept as it is
    assert T4S.with_trivial_extensions().singular == T4S.singular


def test_with_trivial_extensions_is_built_once():
    for name in BUILTIN_BUNDLES:
        b = builtin_bundle(name)
        assert b.with_trivial_extensions() is b.with_trivial_extensions()


def test_value_types_are_immutable_and_hash_and_print_as_their_fields():
    one = ((1,),)
    bundle = StructureBundle(SemiquandleTable(one, one), SingularExtension(one, one),
                             VirtualExtension((1,)))
    bundle.ops     # what the bundle keeps for its readers is not a field
    code = parse_code("comp: F1.sup F1.sub\n")
    rel = Relation("up", ("a", "b"), "c")
    values = [
        (Violation("0", ("up", 1)), ("axiom", "witness")),
        (bundle.table, ("up", "dn")),
        (bundle.singular, ("hup", "hdn")),
        (bundle.virtual, ("v",)),
        (bundle, ("table", "singular", "virtual")),
        (Pass("F", 1, "sup"), ("kind", "cid", "role", "sign")),
        (code, ("components",)),
        (rel, ("kind", "args", "result")),
        (Presentation(("a", "b", "c"), (rel,)), ("generators", "relations")),
        (Presentation(["a", "b", "c"], [rel]), ("generators", "relations")),
        (InvariantResult(1, (1,), "z"), ("count", "image_sizes", "polynomial")),
        (MoveSpec("fR1", "insert", ((0, 0),), "sup_first"), ("move", "direction", "site", "variant")),
        (Fingerprint(("z",)), ("polynomials",)),
        (CanonicalForm(((0,),), ((0,),)), ("up", "dn")),
    ]
    for x, names in values:
        fields = tuple(getattr(x, f) for f in names)
        assert hash(x) == hash(fields)
        assert type(x)(*fields) == x
        for f in names:
            with pytest.raises(AttributeError):
                setattr(x, f, getattr(x, f))
    with pytest.raises(AttributeError):
        code.where = {}
    # a presentation built from lists holds tuples, so no relation can be
    # added after its labels were checked
    listed = Presentation(["a", "b", "c"], [rel])
    assert listed == Presentation(("a", "b", "c"), (rel,))
    assert type(listed.generators) is type(listed.relations) is tuple
    assert repr(Pass("C", 2, "over", -1)) == "Pass(kind='C', cid=2, role='over', sign=-1)"
    assert repr(code) == ("PassCode(components=((Pass(kind='F', cid=1, role='sup', sign=0), "
                          "Pass(kind='F', cid=1, role='sub', sign=0)),))")
    assert repr(MoveSpec("fR1", "insert", ((0, 0),), "sup_first")) == (
        "MoveSpec(move='fR1', direction='insert', site=((0, 0),), variant='sup_first')")
    assert repr(bundle) == ("StructureBundle(table=SemiquandleTable(up=((1,),), dn=((1,),)), "
                            "singular=SingularExtension(hup=((1,),), hdn=((1,),)), "
                            "virtual=VirtualExtension(v=(1,)))")
    # MoveSpec and Violation order by their fields, in field order
    assert MoveSpec("fR1", "delete", ((0, 1),), "b") < MoveSpec("fR1", "insert", ((0, 0),), "a")
    assert sorted([Violation("i", (1, 1)), Violation("0", ("up", 2))])[0].axiom == "0"

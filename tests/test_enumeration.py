"""Enumeration of semiquandles and extensions against naive oracles."""

import itertools
import random

import pytest

import semiquandles.algebra as algebra
import semiquandles.enumeration as enumeration
from semiquandles.algebra import (SemiquandleTable, StructureBundle,
                                  automorphisms, builtin_bundle,
                                  check_semiquandle, check_singular,
                                  column_inverse, make_constant_action,
                                  perm_inverse)
from semiquandles.enumeration import (
    CanonicalForm, ResourceBudgetExceeded, _hat_search_plan,
    enumerate_semiquandles, enumerate_singular_extensions,
    enumerate_virtual_structures,
)


def naive_order2():
    """Oracle: filter all 256 (up, dn) candidate pairs over {1,2}."""
    found = []
    for flat in itertools.product((1, 2), repeat=8):
        up = (flat[0:2], flat[2:4])
        dn = (flat[4:6], flat[6:8])
        if not check_semiquandle(up, dn):
            found.append((up, dn))
    return sorted(found)


def test_order2_matches_naive_filter():
    got = sorted((t.up, t.dn) for t in enumerate_semiquandles(2))
    assert got == naive_order2()
    assert len(got) == 2


def naive_semiquandles(n, up_to_iso=False):
    """Oracle: every tuple of up columns in itertools.product order over
    the permutations, dn derived from axiom ii, filtered by the full
    checker.  Yields (candidate number, table) for each table kept, the
    candidates numbered from 1."""
    perms = list(itertools.permutations(range(1, n + 1)))
    seen = set()
    for k, columns in enumerate(itertools.product(perms, repeat=n), 1):
        up = tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))
        up_inv = column_inverse(up)
        dn = tuple(tuple(up_inv[x][up[y][x] - 1] for y in range(n))
                   for x in range(n))
        if check_semiquandle(up, dn):
            continue
        if up_to_iso:
            key = CanonicalForm.of(SemiquandleTable(up, dn))
            if key in seen:
                continue
            seen.add(key)
        yield k, (up, dn)


@pytest.mark.parametrize("up_to_iso", [False, True])
def test_search_yields_the_brute_force_tables_in_order(up_to_iso):
    for n in (1, 2, 3):
        want = [t for _, t in naive_semiquandles(n, up_to_iso)]
        got = [(t.up, t.dn) for t in enumerate_semiquandles(n, up_to_iso)]
        assert got == want


@pytest.mark.parametrize("up_to_iso", [False, True])
def test_search_spends_the_budget_like_the_brute_force(up_to_iso):
    # a pruned block counts one node per candidate in it, so every budget
    # stops at the same candidate with the same tables yielded
    naive = list(naive_semiquandles(3, up_to_iso))
    for budget in range(6 ** 3 + 1):
        want = [t for k, t in naive if k <= budget]
        got, stopped = [], None
        try:
            for t in enumerate_semiquandles(3, up_to_iso, node_budget=budget):
                got.append((t.up, t.dn))
        except ResourceBudgetExceeded as e:
            stopped = (e.nodes, e.found)
        assert got == want
        assert stopped == (None if budget == 6 ** 3 else (budget + 1, len(want)))


def test_order4_tables_and_classes():
    tables = list(enumerate_semiquandles(4))
    assert len(tables) == 168 == len({(t.up, t.dn) for t in tables})
    assert all(not check_semiquandle(t.up, t.dn) for t in tables)
    keys = [CanonicalForm.of(t) for t in enumerate_semiquandles(4, up_to_iso=True)]
    assert len(keys) == 23 == len(set(keys))
    assert set(keys) == {CanonicalForm.of(t) for t in tables}


def test_only_candidates_that_pass_every_partial_check_are_checked_in_full(monkeypatch):
    # the brute force checks all 216 candidates of order 3; the search
    # leaves the full check to the SemiquandleTable constructor
    calls = []

    def counting(up, dn):
        calls.append(up)
        return check_semiquandle(up, dn)
    monkeypatch.setattr(algebra, "check_semiquandle", counting)
    assert len(list(enumerate_semiquandles(3))) == 12
    assert len(calls) <= 24


def test_order3_contains_all_constant_action_tables():
    have = {(t.up, t.dn) for t in enumerate_semiquandles(3)}
    for sigma in itertools.permutations((1, 2, 3)):
        t = make_constant_action(3, sigma)
        assert (t.up, t.dn) in have
    assert len(have) == 12


def test_order3_isomorphism_classes():
    reps = list(enumerate_semiquandles(3, up_to_iso=True))
    assert len(reps) == 5
    keys = {CanonicalForm.of(t) for t in reps}
    assert len(keys) == 5
    all_keys = {CanonicalForm.of(t) for t in enumerate_semiquandles(3)}
    assert keys == all_keys


def test_canonical_form_is_relabeling_invariant():
    t = builtin_bundle("t4").table
    phi = (2, 4, 1, 3)
    inv = {v: i + 1 for i, v in enumerate(phi)}
    re_up = tuple(tuple(phi[t.up[inv[x] - 1][inv[y] - 1] - 1]
                        for y in range(1, 5)) for x in range(1, 5))
    re_dn = tuple(tuple(phi[t.dn[inv[x] - 1][inv[y] - 1] - 1]
                        for y in range(1, 5)) for x in range(1, 5))
    assert CanonicalForm.of(SemiquandleTable(re_up, re_dn)) == CanonicalForm.of(t)


def test_order_outside_its_range_is_a_value_error():
    for n in (0, enumeration.MAX_ORDER + 1, 100):
        with pytest.raises(ValueError, match="order must be from 1 to 16"):
            next(enumerate_semiquandles(n, node_budget=0))
    with pytest.raises(ResourceBudgetExceeded):
        next(enumerate_semiquandles(enumeration.MAX_ORDER, node_budget=0))


def test_budget_exceeded_is_explicit():
    with pytest.raises(ResourceBudgetExceeded) as e:
        list(enumerate_semiquandles(3, node_budget=50))
    assert e.value.nodes == 51
    assert e.value.found >= 0


def naive_singular_extensions(table):
    """Oracle: every hup candidate with hdn forced by the hat axiom,
    filtered by the full checker, in product order over hup."""
    n = table.n
    out = []
    inv_col = [{table.up[i][j]: i + 1 for i in range(n)} for j in range(n)]
    for flat in itertools.product(range(1, n + 1), repeat=n * n):
        hup = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        hdn = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                t = hup[table.dn[y][x] - 1][table.up[x][y] - 1]
                hdn[y][x] = inv_col[hup[x][y] - 1][t]
        hdn = tuple(tuple(r) for r in hdn)
        if not check_singular(table.up, table.dn, hup, hdn):
            out.append((hup, hdn))
    return out


def test_singular_extensions_of_order3_constant_action():
    # the search yields the brute-force extensions in the same order on
    # every table of order <= 2, on ca3, and on one table of each other
    # order-3 isomorphism class
    table = builtin_bundle("ca3").table
    tables = [*enumerate_semiquandles(1), *enumerate_semiquandles(2), table]
    tables += [t for t in enumerate_semiquandles(3, up_to_iso=True)
               if CanonicalForm.of(t) != CanonicalForm.of(table)]
    assert len(tables) == 8
    for t in tables:
        got = [(e.hup, e.hdn) for e in enumerate_singular_extensions(t)]
        assert got == naive_singular_extensions(t)
    got = [(e.hup, e.hdn) for e in enumerate_singular_extensions(table)]
    assert len(got) == 27
    # the operator and flat extensions are among them
    from semiquandles.algebra import make_operator_singular, make_flat_singular
    for ext in (make_operator_singular(table), make_flat_singular(table)):
        assert (ext.hup, ext.hdn) in got


def test_singular_extensions_of_t4():
    t4 = builtin_bundle("t4")
    sing = builtin_bundle("t4_sing").singular
    got = [(e.hup, e.hdn) for e in enumerate_singular_extensions(t4.table)]
    # a regression value: brute force over 4^16 hup tables is out of reach
    assert len(got) == 16 == len(set(got))
    assert (sing.hup, sing.hdn) in got
    assert all(not check_singular(t4.table.up, t4.table.dn, *e) for e in got)

    def relabel(t, phi):
        inv = perm_inverse(phi)
        return tuple(tuple(phi[t[inv[x] - 1][inv[y] - 1] - 1] for y in range(4))
                     for x in range(4))
    for phi in automorphisms(t4):
        assert {(relabel(h, phi), relabel(g, phi)) for h, g in got} == set(got)


def test_hat_search_plan_compiles_every_axiom_instance():
    # hup and hdn are drawn independently: with hdn derived from hup by
    # axiom hi, hi.a and hi.b never fail on these tables
    rng = random.Random(4)
    tables = [builtin_bundle("t4").table, *enumerate_semiquandles(3, up_to_iso=True)]
    for table in tables:
        n = table.n
        ops = StructureBundle(table).ops
        _, checks = _hat_search_plan(ops["up"], ops["dn"])
        for _ in range(40):
            hup, hdn = ([rng.randrange(n) for _ in range(n * n)] for _ in range(2))
            failing = sum(not check(hup, hdn) for cell in checks for check in cell)
            hup1, hdn1 = (tuple(tuple(v + 1 for v in flat[i:i + n])
                                for i in range(0, n * n, n)) for flat in (hup, hdn))
            assert failing == len(check_singular(table.up, table.dn, hup1, hdn1))


def test_singular_extension_budget_reports_progress():
    table = make_constant_action(3, (1, 2, 3))
    yielded = 0
    with pytest.raises(ResourceBudgetExceeded) as e:
        for _ in enumerate_singular_extensions(table, node_budget=100):
            yielded += 1
    assert e.value.nodes == 101
    assert e.value.found == yielded > 0


def test_virtual_structures_are_automorphisms():
    b = builtin_bundle("t4_sing")
    autos = enumerate_virtual_structures(b)
    assert (1, 2, 3, 4) in autos
    assert (3, 4, 1, 2) in autos
    reps = enumerate_virtual_structures(b, up_to_conjugacy=True)
    assert set(reps) <= set(autos)
    assert (1, 2, 3, 4) in reps


def test_enumeration_is_deterministic():
    a = [(t.up, t.dn) for t in enumerate_semiquandles(3)]
    b = [(t.up, t.dn) for t in enumerate_semiquandles(3)]
    assert a == b

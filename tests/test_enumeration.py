"""Enumeration of semiquandles and extensions against naive oracles."""

import hashlib
import itertools
import random

import pytest

import semiquandles.algebra as algebra
import semiquandles.enumeration as enumeration
from semiquandles.algebra import (_HAT_AXIOMS, SemiquandleTable, StructureBundle,
                                  automorphisms, builtin_bundle,
                                  check_semiquandle, check_singular,
                                  column_inverse, make_constant_action,
                                  perm_inverse)
from semiquandles.enumeration import (
    CanonicalForm, ResourceBudgetExceeded, _hat_readers, _hat_search_plan,
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


def test_the_searches_call_no_checker(monkeypatch):
    # the brute force checks all 216 candidates of order 3; the searches
    # prove what they yield and build it without the checking constructors
    calls = []
    for name in ("check_semiquandle", "check_singular", "check_virtual"):
        checker = getattr(algebra, name)
        monkeypatch.setattr(algebra, name,
                            lambda *a, c=checker: calls.append(a) or c(*a))
    tables = list(enumerate_semiquandles(3))
    assert len(tables) == 12
    assert len(list(enumerate_semiquandles(3, up_to_iso=True))) == 5
    assert sum(1 for t in tables for _ in enumerate_singular_extensions(t)) > 0
    assert calls == []
    # the public constructor still checks, through the patched checker
    SemiquandleTable(tables[0].up, tables[0].dn)
    assert len(calls) == 1


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


HAT_TABLES = [builtin_bundle("t4").table, *enumerate_semiquandles(3, up_to_iso=True)]


def compiled_hat_instances(up, dn):
    """(name, holds, witness, check) for every instance of every hat
    axiom, check compiled over the readers of the hat search."""
    readers = _hat_readers(up, dn)
    return [(name, holds, w, holds(*readers, *w))
            for name, arity, _, holds in _HAT_AXIOMS
            for w in itertools.product(range(len(up)), repeat=arity)]


def test_hat_search_plan_compiles_every_axiom_instance():
    # hup and hdn are drawn independently, so hi.a and hi.b fail too
    rng = random.Random(4)
    for table in HAT_TABLES:
        n = table.n
        ops = StructureBundle(table).ops
        up, dn = ops["up"], ops["dn"]
        instances = compiled_hat_instances(up, dn)
        for _ in range(40):
            hup, hdn = ([[rng.randrange(n) for _ in range(n)] for _ in range(n)]
                        for _ in range(2))
            h = [v + 1 for t in (hup, hdn) for row in t for v in row]
            for _, holds, w, (left, a1, a2, right, b1, b2) in instances:
                assert ((left[h[a1]][h[a2]] == right[h[b1]][h[b2]])
                        == holds(up, dn, hup, hdn, *w))


def test_hat_search_plan_files_each_distinct_check_under_its_last_cell():
    # hi.a is left out because the search derives hdn from it; a check
    # whose two sides are the same always holds
    for table in HAT_TABLES:
        n = table.n
        ops = StructureBundle(table).ops
        up, dn = ops["up"], ops["dn"]
        # hup[x][y] is set at step x*n + y, hdn[a][b] once the two hup
        # cells axiom hi derives it from are
        step = [*range(n * n), *(max(b * n + a, dn[a][b] * n + up[b][a])
                                 for a in range(n) for b in range(n))]
        want = [set() for _ in range(n * n)]
        for name, _, _, check in compiled_hat_instances(up, dn):
            if name != "hi.a" and check[:3] != check[3:]:
                want[max(step[i] for i in check[1:3] + check[4:])].add(check)
        _, checks, _ = _hat_search_plan(up, dn, ops["up_inv"])
        assert [len(set(cell)) for cell in checks] == [len(cell) for cell in checks]
        assert [set(cell) for cell in checks] == want


def test_singular_extensions_and_budget_stops_are_pinned():
    # regression values of the search before its checks were compiled:
    # every extension, in order, of the 15 tables of order <= 3 and of
    # t4, and where the budget stops it on t4 and the trivial order-3 table
    tables = [t for n in (1, 2, 3) for t in enumerate_semiquandles(n)]
    tables.append(builtin_bundle("t4").table)
    digest = hashlib.sha256()
    count = 0
    for t in tables:
        for e in enumerate_singular_extensions(t):
            digest.update(repr((e.hup, e.hdn)).encode())
            count += 1
    assert count == 20233
    assert digest.hexdigest() == (
        "9277fc92903d0ba9a3d1cf41f58d6de01ab239878d3f6a52ec405df29e0cac05")

    def stop(table, budget):
        try:
            for _ in enumerate_singular_extensions(table, node_budget=budget):
                pass
        except ResourceBudgetExceeded as e:
            return e.nodes, e.found
    t4, trivial = tables[-1], tables[3]
    assert trivial.up == ((1, 1, 1), (2, 2, 2), (3, 3, 3))
    assert [stop(t4, b) for b in (0, 5, 100, 250, 400, 550, 843, 844)] == [
        (1, 0), (6, 0), (101, 2), (251, 5), (401, 8), (551, 10), (844, 16), None]
    assert [stop(trivial, b) for b in (7, 1000, 12345, 29000)] == [
        (8, 0), (1001, 664), (12346, 8228), (29001, 19332)]


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
    autos = automorphisms(b)
    assert (1, 2, 3, 4) in autos
    assert (3, 4, 1, 2) in autos
    reps = enumerate_virtual_structures(b)
    assert set(reps) <= set(autos)
    assert (1, 2, 3, 4) in reps


def test_enumeration_is_deterministic():
    a = [(t.up, t.dn) for t in enumerate_semiquandles(3)]
    b = [(t.up, t.dn) for t in enumerate_semiquandles(3)]
    assert a == b

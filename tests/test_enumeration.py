"""Enumeration of semiquandles and extensions against naive oracles."""

import hashlib
import itertools
import random

import pytest

import semiquandles.algebra as algebra
import semiquandles.enumeration as enumeration
from semiquandles.algebra import (_FLAT_AXIOMS, _HAT_AXIOMS, BUILTIN_BUNDLES, SemiquandleTable,
                                  StructureBundle, _conjugacy_classes,
                                  automorphisms, builtin_bundle,
                                  check_semiquandle, check_singular,
                                  check_virtual, make_constant_action,
                                  perm_inverse, SingularExtension)
from semiquandles.cli import main
from semiquandles.enumeration import (
    CanonicalForm, ResourceBudgetExceeded, _column_check, _hat_check, _hat_env,
    _hat_search_plan,
    enumerate_semiquandles, enumerate_singular_extensions,
)


def column_inverse(t):
    """Oracle: the 1-based table inv with inv[x-1][y-1] = w exactly when
    t[w-1][y-1] = x; defined when every column of t is a permutation."""
    n = len(t)
    inv = [[0] * n for _ in range(n)]
    for w in range(n):
        for y in range(n):
            inv[t[w][y] - 1][y] = w + 1
    return tuple(tuple(row) for row in inv)


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


def partial_up(rng, n, columns):
    """up padded with the unknown value n and its column inverses (invs[c]
    the unknown row n, n, ... while column c is unknown), the columns of
    up in columns set to random permutations."""
    up = [[n] * (n + 1) for _ in range(n + 1)]
    invs = [[n] * (n + 1) for _ in range(n + 1)]
    for c in columns:
        for r, v in enumerate(rng.sample(range(n), n)):
            up[r][c] = v
            invs[c][v] = r
    return up, invs


def test_column_checks_match_the_catalog_on_partial_tables():
    # over up padded with the unknown value n and its column inverses, a
    # generated check gives None exactly when its predicate reads an
    # unknown entry, and otherwise the predicate's value
    class Unknown(Exception):
        pass

    class Guarded:
        def __init__(self, t, row=None):
            self.t, self.row = t, row

        def __getitem__(self, i):
            if i == n:
                raise Unknown
            if self.row is None:
                return Guarded(self.t, i)
            if self.t[self.row][i] == n:
                raise Unknown
            return self.t[self.row][i]

    rng = random.Random(7)
    n = 3
    unknowns = 0
    for _ in range(30):
        up, invs = partial_up(rng, n, [c for c in range(n) if rng.random() < 0.7])
        # axiom ii.a: dn[a][b] is the row r with up[r][up[b][a]] == a,
        # unknown while column a or column up[b][a] is
        dn = [[next((r for r in range(n) if up[r][up[b][a]] == a), n) for b in range(n)]
              for a in range(n)]
        for _, arity, holds in _FLAT_AXIOMS:
            check, _ = _column_check(holds, arity)
            for w in itertools.product(range(n), repeat=arity):
                try:
                    want = holds(Guarded(up), Guarded(dn), *w)
                except Unknown:
                    want = None
                    unknowns += 1
                assert check(up, invs, n, *w) == want
    assert unknowns


def test_each_flat_instance_reads_an_unknown_entry_before_its_filing_column():
    # the column search files an instance under the largest witness value
    # at the positions where its check reads a column of up; while only
    # the columns before that one are set (up's columns from it on hold
    # the unknown value n, and so does each dn entry read through them),
    # the check returns None, so filing it any earlier would gain nothing
    filing = {name: _column_check(holds, arity)[1] for name, arity, holds in _FLAT_AXIOMS}
    assert filing == {"i": (0,), "ii.a": (0,), "ii.b": (1,),
                      "iii.a": (1, 2), "iii.b": (1, 2), "iii.c": (1, 2)}
    rng = random.Random(5)
    n = 3
    for _, arity, holds in _FLAT_AXIOMS:
        check, columns = _column_check(holds, arity)
        for w in itertools.product(range(n), repeat=arity):
            c = max(w[k] for k in columns)
            for _ in range(20):
                up, invs = partial_up(rng, n, range(c))
                assert check(up, invs, n, *w) is None


def test_hat_compile_rejects_what_a_check_cannot_read():
    # a hat table is read at constants of up and dn only, and each side
    # of a check is a value of the extension
    with pytest.raises(TypeError, match="hup read at a value of the extension"):
        _hat_check(lambda up, dn, hup, hdn, x, y: hup[hup[x][y]][x] == hup[x][y], 2)
    with pytest.raises(TypeError, match="compares values of the extension only"):
        _hat_check(lambda up, dn, hup, hdn, x, y: up[x][y] == hup[x][y], 2)


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
    from semiquandles.algebra import make_operator_singular
    for ext in (make_operator_singular(table), SingularExtension(table.up, table.dn)):
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
    axiom, check compiled as the hat search compiles it."""
    env = _hat_env(up, dn)
    return [(name, holds, w, _hat_check(holds, arity)(*env, *w))
            for name, arity, holds in _HAT_AXIOMS
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


def test_hat_search_plan_files_each_kept_check_under_its_last_cell():
    # hi.a is left out because the search derives hdn from it, and a check
    # whose two sides are the same always holds.  Of the other distinct
    # checks, the plan drops each that reads at most two hup cells and
    # holds at every value of them, tried here one by one, and files every
    # other under the last cell it reads
    trivial = ((1, 1, 1), (2, 2, 2), (3, 3, 3))
    assert trivial in [t.up for t in HAT_TABLES]
    for table in HAT_TABLES:
        n = table.n
        ops = StructureBundle(table).ops
        up, dn = ops["up"], ops["dn"]
        up_inv = algebra._zero_based(column_inverse(table.up))
        # hup[x][y] is cell x*n + y; hdn[a][b] is derived from two of them
        sources = [(dn[a][b] * n + up[b][a], b * n + a) for a in range(n) for b in range(n)]
        cells_of = [{i} for i in range(n * n)] + [set(s) for s in sources]

        def always_holds(check, read):
            left, a1, a2, right, b1, b2 = check
            for values in itertools.product(range(n), repeat=len(read)):
                hup = [0] * (n * n)
                for c, v in zip(read, values):
                    hup[c] = v
                h = [v + 1 for v in hup] + [up_inv[hup[i]][hup[j]] + 1 for i, j in sources]
                if left[h[a1]][h[a2]] != right[h[b1]][h[b2]]:
                    return False
            return True

        distinct = {check for name, _, _, check in compiled_hat_instances(up, dn)
                    if name != "hi.a" and check[:3] != check[3:]}
        _, checks, _ = _hat_search_plan(up, dn)
        assert [len(set(cell)) for cell in checks] == [len(cell) for cell in checks]
        kept = {check: c for c, cell in enumerate(checks) for check in cell}
        assert set(kept) <= distinct
        dropped = 0
        for check in distinct:
            read = sorted(set().union(*(cells_of[i] for i in check[1:3] + check[4:])))
            provable = len(read) <= 2 and always_holds(check, read)
            assert kept.get(check) == (None if provable else read[-1])
            dropped += provable
        assert dropped == len(distinct) - len(kept)
        if table.up == trivial:
            # the trivial table's checks all read at most two cells and hold
            assert dropped == len(distinct) > 0 and not kept


def test_hat_search_plans_are_pinned():
    # regression value of the plans before the hat search tried one value
    # per step and its arguments stopped sharing an equal dn with up: the
    # derivations, kept checks and finished rows of the 31 classes of
    # orders 1-4, in enumeration order, compared by content
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 5):
        for table in enumerate_semiquandles(n, up_to_iso=True):
            ops = StructureBundle(table).ops
            digest.update(repr(_hat_search_plan(ops["up"], ops["dn"])).encode())
            count += 1
    assert count == 31
    assert digest.hexdigest() == (
        "e19eef1dce8581e6b1b4c6cdffd45966e8a409f9997565fc9305218d2d1698de")


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


def extension_stop(table, budget):
    """(nodes, found) where the budget stops the extension search of the
    table, or None where the search finishes within it."""
    try:
        for _ in enumerate_singular_extensions(table, node_budget=budget):
            pass
    except ResourceBudgetExceeded as e:
        return e.nodes, e.found


def test_singular_extension_stops_of_order_3_classes_are_pinned():
    # regression value of the search before its plan dropped the checks
    # that always hold and it tried the last cell's values in one loop:
    # the stop at every budget up to the node count of the whole search,
    # for each order-3 class but the trivial table (pinned above)
    classes = sorted(enumerate_semiquandles(3, up_to_iso=True), key=lambda t: (t.up, t.dn))
    assert classes[0].up == ((1, 1, 1), (2, 2, 2), (3, 3, 3))
    totals = (396, 861, 579, 525)
    digest = hashlib.sha256()
    for table, total in zip(classes[1:], totals):
        stops = [extension_stop(table, b) for b in range(total + 1)]
        assert stops[-2][0] == total and stops[-1] is None
        digest.update(repr(stops).encode())
    assert [extension_stop(t, total - 1)[1] for t, total in zip(classes[1:], totals)] == [
        36, 81, 36, 27]
    assert digest.hexdigest() == (
        "8a20e8a2f1b027878aeb99b3dae8c5b3cc7bc20fdb14145fa31d4a82216cd2e6")


def test_order_4_budget_stops_are_pinned():
    # regression values of the column search before its checks were
    # compiled: 24^4 candidates, of which 168 are tables
    def stop(budget):
        try:
            for _ in enumerate_semiquandles(4, node_budget=budget):
                pass
        except ResourceBudgetExceeded as e:
            return e.nodes, e.found
    budgets = (0, 1, 23, 24, 575, 576, 4000, 13824, 100000, 200000, 331775, 331776)
    assert [stop(b) for b in budgets] == [
        (1, 0), (2, 1), (24, 6), (25, 6), (576, 16), (577, 16), (4001, 26),
        (13825, 36), (100001, 78), (200001, 115), (331776, 167), None]


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
    reps = _conjugacy_classes(autos)
    assert set(reps) <= set(autos)
    assert (1, 2, 3, 4) in reps


def test_virtual_structures_relabel_each_class_once(monkeypatch):
    # every permutation is an automorphism of the order-6 projection
    # table, so the classes are the 11 cycle types of S_6; listing each
    # class once costs 11 * 720 relabelings, not 720^2
    rows = tuple(tuple(x for _ in range(6)) for x in range(1, 7))
    bundle = StructureBundle(SemiquandleTable(rows, rows))
    calls = []
    relabeled = algebra._relabeled
    monkeypatch.setattr(algebra, "_relabeled",
                        lambda *a: calls.append(a) or relabeled(*a))
    reps = _conjugacy_classes(automorphisms(bundle))

    def cycle(p, x):
        k, y = 1, p[x - 1]
        while y != x:
            k, y = k + 1, p[y - 1]
        return k
    assert len(automorphisms(bundle)) == 720
    assert len({tuple(sorted(cycle(p, x) for x in p)) for p in reps}) == len(reps) == 11
    assert len(calls) == 11 * 720


def test_table_symmetry_is_pinned(capsys):
    # regression value of the symmetry code before it shared one
    # relabeling and one preservation scan: the automorphisms, the
    # virtual structures and the check_virtual report of every map of
    # 1..n (each permutation and one of the wrong length) of the 15
    # tables of order <= 3 and of every builtin, then the stdout of auto
    # on every builtin, as text and as JSON
    bundles = [StructureBundle(t) for n in (1, 2, 3) for t in enumerate_semiquandles(n)]
    bundles += [builtin_bundle(name) for name in BUILTIN_BUNDLES]
    digest = hashlib.sha256()
    for b in bundles:
        hat = (b.singular.hup, b.singular.hdn) if b.has_singular else ()
        maps = [*itertools.permutations(range(1, b.n + 1)), (1,) * (b.n + 1)]
        reports = [check_virtual(b.table.up, b.table.dn, v, *hat) for v in maps]
        autos = automorphisms(b)
        digest.update(repr((autos, _conjugacy_classes(autos), reports)).encode())
    for name in BUILTIN_BUNDLES:
        for extra in ([], ["--json"]):
            assert main(["auto", "--table", name, *extra]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "c1091d19ec7c0b6ee9aa256d94090ac31e9746862ac3df783daf7e207e26c227")


def test_enumeration_is_deterministic():
    a = [(t.up, t.dn) for t in enumerate_semiquandles(3)]
    b = [(t.up, t.dn) for t in enumerate_semiquandles(3)]
    assert a == b

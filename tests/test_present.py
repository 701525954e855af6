"""Presentations, the coloring solver, and the invariants, against a
naive exhaustive oracle."""

import functools
import hashlib
import itertools
import math
import random
import time

import pytest

import semiquandles.present as present
from semiquandles.algebra import (ResourceBudgetExceeded, StructureBundle,
                                  builtin_bundle, parse_table_text, subclosure)
from semiquandles.diagram import (_ROLES, CLASSICAL, Pass, PassCode,
                                  extract_relations, parse_code)
from semiquandles.moves import random_code
from semiquandles.present import (
    Presentation, Relation, PresentationError, MissingExtensionError,
    parse_presentation, colorings, count_colorings,
    enhanced_invariant, polynomial_text, builtin, BUILTIN_PRESENTATIONS,
)

T4 = builtin_bundle("t4")
CA3_OP = builtin_bundle("ca3_op")
TS3 = builtin_bundle("ts3_v13")


def naive_colorings(p, bundle):
    """Independent oracle: try every assignment of 1..n to the generators."""
    n, ops = bundle.n, bundle.ops
    for values in itertools.product(range(1, n + 1), repeat=len(p.generators)):
        a = dict(zip(p.generators, values))
        ok = True
        for rel in p.relations:
            x = a[rel.args[0]] - 1
            if rel.kind == "v":
                got = ops["v"][x] + 1
            else:
                got = ops[rel.kind][x][a[rel.args[1]] - 1] + 1
            if got != a[rel.result]:
                ok = False
                break
        if ok:
            yield a


def naive_count(p, bundle):
    return sum(1 for _ in naive_colorings(p, bundle))


def naive_image_sizes(p, bundle):
    return sorted(len(subclosure(bundle, set(f.values())))
                  for f in naive_colorings(p, bundle))


def assert_matches_oracle(p, bundle):
    expected = naive_image_sizes(p, bundle)
    assert count_colorings(p, bundle) == len(expected)
    assert list(enhanced_invariant(p, bundle).image_sizes) == expected


# ---------------------------------------------------------------------------
# parsing

def format_presentation(p: Presentation) -> str:
    """The text of p in the form parse_presentation reads."""
    lines = ["gens: " + " ".join(p.generators)]
    for r in p.relations:
        lines.append(f"{r.kind}({','.join(r.args)})={r.result}")
    return "\n".join(lines) + "\n"


def test_parse_and_format_round_trip():
    for name in BUILTIN_PRESENTATIONS:
        p = builtin(name)
        assert parse_presentation(format_presentation(p)) == p


def test_parse_rejects_malformed_relations():
    for text in ("up(a)=b", "up(a,b)", "foo(a,b)=c", "gens: a\nup(a,b)=c"):
        with pytest.raises(PresentationError):
            parse_presentation(text)


def test_undeclared_generator_rejected():
    with pytest.raises(PresentationError):
        Presentation(("a",), (Relation("up", ("a", "b"), "a"),))


# ---------------------------------------------------------------------------
# reference invariant values

def test_flat_kishino_has_16_colorings_over_t4():
    assert count_colorings(builtin("flat_kishino"), T4) == 16


def test_unknot_has_4_colorings_over_t4():
    assert count_colorings(builtin("unknot"), T4) == 4


def test_glued_code_has_no_colorings_over_ca3_operator():
    assert count_colorings(builtin("triple_crazy_trefoil"), CA3_OP) == 0


def test_singular_kink_polynomial_over_ca3_operator():
    result = enhanced_invariant(builtin("singular_unknot_1"), CA3_OP)
    assert result.count == 9
    assert result.polynomial == "9z^3"


def test_glued_code_zero_count_symbolic_crosscheck():
    """The glued-code relations over a constant-action structure with
    hat operations x op y = sigma(y) force sigma(a) = a; since sigma =
    (1 3 2) is fixed-point free, the count must be 0.

    Relations: hup(a,c)=b, hdn(c,a)=d, up(d,b)=a, dn(b,d)=c.  Constant
    action: up(x,y) = dn(x,y) = sigma(y); operator singular: hup(x,y) =
    hdn(x,y) = sigma(y).  Then b = sigma(c), d = sigma(a), a = up(d,b) =
    sigma(b) = sigma^2(c), and c = dn(b,d) = sigma(d) = sigma^2(a), so
    a = sigma^4(a) = sigma(a), impossible.
    """
    sigma = {1: 3, 2: 1, 3: 2}   # the cycle (1 3 2)
    assert all(sigma[x] != x for x in sigma)
    for a in (1, 2, 3):
        for c in (1, 2, 3):
            b, d = sigma[c], sigma[a]
            if sigma[b] == a and sigma[d] == c:
                pytest.fail(f"unexpected coloring a={a} c={c}")
    assert count_colorings(builtin("triple_crazy_trefoil"), CA3_OP) == 0


def test_singular_kink_image_closures_all_have_size_3():
    for f in colorings(builtin("singular_unknot_1"), CA3_OP):
        assert len(subclosure(CA3_OP, set(f.values()))) == 3


# ---------------------------------------------------------------------------
# oracle equivalence

def test_solver_matches_naive_oracle_on_builtins():
    for name in BUILTIN_PRESENTATIONS:
        p = builtin(name)
        for bundle in (CA3_OP, TS3.with_trivial_extensions()):
            assert count_colorings(p, bundle) == naive_count(p, bundle)


def random_presentation(rng, n_gens, n_rels, kinds):
    gens = tuple(f"g{i}" for i in range(n_gens))
    rels = []
    for _ in range(n_rels):
        kind = rng.choice(kinds)
        if kind == "v":
            rels.append(Relation("v", (rng.choice(gens),), rng.choice(gens)))
        else:
            rels.append(Relation(kind, (rng.choice(gens), rng.choice(gens)),
                                 rng.choice(gens)))
    return Presentation(gens, tuple(rels))


def test_solver_matches_naive_oracle_on_random_presentations():
    rng = random.Random(20260823)
    bundles = [T4, CA3_OP, TS3, TS3.with_trivial_extensions()]
    kinds_for = {
        id(T4): ("up", "dn"),
        id(CA3_OP): ("up", "dn", "hup", "hdn"),
        id(TS3): ("up", "dn", "v"),
        id(bundles[3]): ("up", "dn", "hup", "hdn", "v"),
    }
    for _ in range(50):
        bundle = rng.choice(bundles)
        n_gens = rng.randint(1, 6)
        if bundle.n ** n_gens > 10 ** 6:
            n_gens = 4
        p = random_presentation(rng, n_gens, rng.randint(0, 8),
                                kinds_for[id(bundle)])
        assert count_colorings(p, bundle) == naive_count(p, bundle)


# the builtin bundles that carry every extension a code of these kinds needs
CODE_BUNDLES = {
    "F": ("t4", "t4_sing", "ca3", "ca3_op", "ts3_v13"),
    "FS": ("t4_sing", "ca3_op"),
    "FV": ("ts3_v13",),
}
ORACLE_MAX = 20_000     # largest n^k colorings the product oracle tries


def has_kink(p):
    """Some crossing's up/dn (or hup/hdn) pair repeats a label."""
    return any(nxt.args == rel.args[::-1]
               and len(set(rel.labels() + (nxt.result,))) < 4
               for rel, nxt in zip(p.relations, p.relations[1:])
               if (rel.kind, nxt.kind) in (("up", "dn"), ("hup", "hdn")))


def test_crossing_constraints_match_product_enumeration_on_random_codes():
    checked = kinked = 0
    for kinds, names in CODE_BUNDLES.items():
        for seed in range(60):
            budget = {kind: 3 for kind in kinds}
            budget["components"] = 1 + seed % 3
            p = extract_relations(random_code(budget, seed=seed))
            for name in names:
                bundle = builtin_bundle(name)
                if bundle.n ** len(p.generators) > ORACLE_MAX:
                    continue
                assert_matches_oracle(p, bundle)
                checked += 1
                kinked += has_kink(p)
    assert checked >= 400 and kinked >= 200, (checked, kinked)


@pytest.mark.parametrize("text", [
    # one crossing pair whose labels repeat, and a pair reading one label
    # in both argument slots
    "up(a,b)=b; dn(b,a)=a; up(c,c)=d; dn(c,c)=c",
    # a lone dn before the up it would pair with: two 3-label tables
    "dn(b,a)=d; up(a,b)=c; up(c,d)=a; dn(d,c)=b",
])
def test_hand_written_presentations_match_product_enumeration(text):
    p = parse_presentation(text)
    for name in CODE_BUNDLES["F"]:
        assert_matches_oracle(p, builtin_bundle(name))


def test_image_sizes_close_each_value_set_once(monkeypatch):
    seeds = []

    def counted(bundle, seed):
        seeds.append(frozenset(seed))
        return subclosure(bundle, seed)
    monkeypatch.setattr(present, "subclosure", counted)
    # a bundle object of its own, so no other test has filled its memo
    t4 = StructureBundle(T4.table)
    p = builtin("unlink(2)")
    result = enhanced_invariant(p, t4)
    # 16 colorings take 4 single values and 6 pairs: 10 value sets
    assert result.count == 16
    assert len(seeds) == len(set(seeds)) == 10
    assert list(result.image_sizes) == naive_image_sizes(p, t4)
    # the sizes are kept with the bundle, so a second call closes none
    assert enhanced_invariant(p, t4) == result
    assert len(seeds) == 10


def closed_braid(word, strands: int) -> PassCode:
    """The closure of a braid word on the given number of strands.

    Letter (kind, i), 0 < |i| < strands, is crossing number k (k counts
    letters from 1) between the strands at positions |i|-1 and |i|; the
    left one takes the kind's first role (sup, v+ or over) when i > 0.
    A classical crossing carries the sign of i.  Each cycle of the
    closing permutation is one component.
    """
    at = list(range(strands))               # the strand at each position
    passes = [[] for _ in range(strands)]
    for k, (kind, i) in enumerate(word, 1):
        left, right = at[abs(i) - 1], at[abs(i)]
        first, second = _ROLES[kind][::1 if i > 0 else -1]
        sign = (1 if i > 0 else -1) if kind == CLASSICAL else 0
        passes[left].append(Pass(kind, k, first, sign))
        passes[right].append(Pass(kind, k, second, sign))
        at[abs(i) - 1], at[abs(i)] = right, left
    comps, seen = [], set()
    for s in range(strands):
        if s in seen:
            continue
        comps.append([])
        while s not in seen:    # strand s flows into the one starting where it ends
            seen.add(s)
            comps[-1] += passes[s]
            s = at.index(s)
    return PassCode(tuple(comps))


def test_split_braid_union_counts_as_the_product_of_its_pieces():
    # five 9-crossing closed 3-braids side by side on 15 strands: the
    # union lists 8192 colorings in about 4 s, while its pieces multiply
    t4_sing = builtin_bundle("t4_sing")
    rng = random.Random(2026)
    words = [[(rng.choice("FS"), rng.choice((1, -1)) * rng.randint(1, 2))
              for _ in range(9)] for _ in range(5)]
    pieces = [count_colorings(extract_relations(closed_braid(w, 3)), t4_sing)
              for w in words]
    union = closed_braid([(kind, i + 3 * j * (1 if i > 0 else -1))
                          for j, w in enumerate(words) for kind, i in w], 15)
    start = time.perf_counter()
    count = count_colorings(extract_relations(union), t4_sing)
    assert time.perf_counter() - start < 1
    assert count == math.prod(pieces) == 8192


def split_code(rng, kinds: str) -> PassCode:
    """2-4 components, each crossing only itself, and now and then an
    empty component after them."""
    comps = []
    for c in range(rng.randint(2, 4)):
        code = random_code({kind: 2 for kind in kinds}, seed=rng.randrange(2 ** 30))
        comps.append(tuple(Pass(p.kind, p.cid + 2 * c, p.role)
                           for p in code.components[0]))
    if rng.random() < 0.3:
        comps.append(())
    return PassCode(tuple(comps))


def test_factored_invariants_match_the_listing_oracles_on_split_codes():
    rng = random.Random(20261018)
    codes = empty = naive = 0
    for kinds, names in CODE_BUNDLES.items():
        for _ in range(40):
            code = split_code(rng, kinds)
            p = extract_relations(code)
            codes += 1
            empty += not code.components[-1]
            for name in names:
                bundle = builtin_bundle(name)
                closure = functools.lru_cache(maxsize=None)(
                    lambda values, b=bundle: len(subclosure(b, values)))
                listed = sorted(closure(frozenset(f.values()))
                                for f in colorings(p, bundle, node_budget=10 ** 6))
                if bundle.n ** len(p.generators) <= ORACLE_MAX // 5:
                    assert listed == naive_image_sizes(p, bundle)
                    naive += 1
                assert count_colorings(p, bundle) == len(listed)
                assert list(enhanced_invariant(p, bundle).image_sizes) == listed
    assert codes >= 100 and empty >= 30 and naive >= 100, (codes, empty, naive)


@pytest.mark.parametrize("seed, budget", [(5, 700), (10, 2800)])
def test_solver_node_count_regression(seed, budget):
    # 341 and 1365 nodes were measured on these 19- and 18-crossing codes;
    # each budget leaves about 2x headroom over the measured count
    p = extract_relations(random_code({"F": 20}, seed=seed))
    t4 = builtin_bundle("t4")
    assert count_colorings(p, t4, node_budget=budget) == 4
    with pytest.raises(ResourceBudgetExceeded) as e:
        count_colorings(p, t4, node_budget=budget // 10)
    assert e.value.nodes == budget // 10 + 1


def pin_code(kinds: str, seed: int) -> Presentation:
    budget = {kind: 5 for kind in kinds}
    budget["components"] = 1 + seed % 3
    return extract_relations(random_code(budget, seed=seed))


def stops(p, bundle, node_budget):
    """(nodes, found) where `colorings` stops within node_budget, or None
    when it finishes."""
    try:
        for _ in colorings(p, bundle, node_budget=node_budget):
            pass
    except ResourceBudgetExceeded as e:
        return e.nodes, e.found
    return None


PIN_BUDGETS = (1, 4, 16)

# The search pinned exactly on `pin_code` seeds 0-39, per (code kinds,
# bundle): each seed's node count, the least node_budget that does not
# raise, and one SHA-256 over every seed's ordered colorings and the
# (nodes, found) at which the search stops one node short and at each of
# PIN_BUDGETS.  Computed with the solver that rebuilt its tables on every
# call; propagation reaches a unique fixpoint, so no faster way to reach
# it may move a node or reorder a coloring.
SEARCH_PINS = {
    ("F", "t4"): (
        "21 21 85 5 3 21 21 3 11 21 21 85 21 37 85 5 3 7 5 21 21 5 21 7 "
        "21 5 87 21 21 23 21 21 85 21 21 23 21 21 85 5",
        "65510df2ff1a747ce346cd828eb30e70fb116acc66028cea549172a938b725d5"),
    ("F", "t4_sing"): (
        "21 21 85 5 3 21 21 3 11 21 21 85 21 37 85 5 3 7 5 21 21 5 21 7 "
        "21 5 87 21 21 23 21 21 85 21 21 23 21 21 85 5",
        "65510df2ff1a747ce346cd828eb30e70fb116acc66028cea549172a938b725d5"),
    ("F", "ca3"): (
        "4 13 40 4 1 4 4 1 1 4 4 40 4 13 40 4 1 1 4 4 13 4 13 1 4 4 1 4 "
        "13 1 4 13 40 4 4 1 4 4 40 4",
        "f983fd43a9f0024274c7de9da36fe41c8fa0be624453772493322d16a0f0b1f8"),
    ("F", "ca3_op"): (
        "4 13 40 4 1 4 4 1 1 4 4 40 4 13 40 4 1 1 4 4 13 4 13 1 4 4 1 4 "
        "13 1 4 13 40 4 4 1 4 4 40 4",
        "f983fd43a9f0024274c7de9da36fe41c8fa0be624453772493322d16a0f0b1f8"),
    ("F", "ts3_v13"): (
        "4 13 40 4 8 34 4 8 23 4 15 40 4 13 40 4 11 22 4 15 26 4 13 26 "
        "4 11 30 4 13 23 4 13 40 4 15 38 4 15 46 4",
        "d71d71c868503765a34711d7f5e56eacccb9e88bb0d1e468bf6cb0e599ffd362"),
    ("FS", "t4_sing"): (
        "9 5 85 29 29 29 21 13 15 21 21 221 13 29 7 5 29 23 5 21 61 5 "
        "13 7 45 5 27 37 5 23 37 45 11 21 25 25 21 21 101 9",
        "89b7a80523ffa74c7fe5b53a6f6c6c4ea89c31de1431721d74bf328c689769c5"),
    ("FS", "ca3_op"): (
        "13 40 40 40 13 4 4 4 1 4 4 364 13 4 40 4 4 40 4 4 4 4 4 1 13 4 "
        "1 4 40 1 13 40 13 4 4 4 4 4 13 4",
        "7e9fdde02139c935fc7663961a931de0b46faedf2da41b194bff6df851fe3ce8"),
    ("FV", "ts3_v13"): (
        "4 7 40 4 8 24 4 11 22 4 11 14 4 15 13 4 11 20 4 15 14 4 13 26 "
        "4 7 28 4 13 10 4 13 4 4 15 24 4 15 28 4",
        "69cb1310ccbee768f06e33ec582e6a131319dd31bf92a738bcd613076e52e39e"),
}


@pytest.mark.parametrize("kinds, name", sorted(SEARCH_PINS))
def test_search_is_pinned_to_its_colorings_and_node_counts(kinds, name):
    bundle = builtin_bundle(name)
    counts, expected = SEARCH_PINS[kinds, name]
    digest = hashlib.sha256()
    for seed, nodes in enumerate(map(int, counts.split())):
        p = pin_code(kinds, seed)
        listed = [tuple(f.values()) for f in colorings(p, bundle, node_budget=nodes)]
        short = stops(p, bundle, nodes - 1)
        assert short is not None, (seed, nodes)
        digest.update(repr((listed, short, [stops(p, bundle, b) for b in PIN_BUDGETS]))
                      .encode())
    assert digest.hexdigest() == expected


def table_rows(con) -> list:
    """The value tuples of a constraint's table, read off its rows memos'
    supports (support[x]: the rows whose value is x)."""
    supports = [rows_in.support for rows_in in con[1]]
    return [tuple(next(x for x, rows in enumerate(sup) if rows >> r & 1)
                  for sup in supports)
            for r in range(con[3].bit_length())]


def plain_gac(tables, domains: list, n: int):
    """Generalized arc consistency as a plain per-value loop: drop each
    value that no row of some table carries with every value of the row
    in its label's domain, until nothing changes.  None when some table
    has no such row."""
    domains = list(domains)
    changed = True
    while changed:
        changed = False
        for scope, rows in tables:
            inside = [row for row in rows
                      if all(domains[lab] >> x & 1 for lab, x in zip(scope, row))]
            if not inside:
                return None
            for j, lab in enumerate(scope):
                kept = 0
                for x in range(n):
                    if domains[lab] >> x & 1 and any(row[j] == x for row in inside):
                        kept |= 1 << x
                if kept != domains[lab]:
                    domains[lab] = kept
                    changed = True
    return domains


def memo_entries_checked(bundle) -> int:
    """Check every filled rows and vals memo entry of the bundle's tables
    against the relation's own rows (`present._rows`): the kept rows are
    those that agree on each repeated label, projected to the distinct
    labels, and row r of them in sorted order is bit 1 << r.  Returns
    how many entries were checked."""
    checked = 0
    for (kinds, slot), (rows_memos, vals_memo, every) in bundle._tables.items():
        first = [slot.index(j) for j in range(len(rows_memos))]
        kept = sorted({tuple(row[i] for i in first)
                       for row in present._rows(bundle.ops, kinds, bundle.n)
                       if all(row[i] == row[first[j]] for i, j in enumerate(slot))})
        assert every == (1 << len(kept)) - 1
        for j, memo in enumerate(rows_memos):
            for dom, rows in memo.items():
                assert rows == sum(1 << r for r, row in enumerate(kept)
                                   if dom >> row[j] & 1), (kinds, slot, j, dom)
                checked += 1
        for live, vals in vals_memo.items():
            want = [0] * len(rows_memos)
            for r, row in enumerate(kept):
                if live >> r & 1:
                    for j, x in enumerate(row):
                        want[j] |= 1 << x
            assert vals == tuple(want), (kinds, slot, live)
            checked += 1
    return checked


def test_propagation_matches_plain_gac_on_random_domains():
    rng = random.Random(20261019)
    verdicts = {True: 0, False: 0}
    for name, kinds in (("t4", "F"), ("t4_sing", "FS"), ("ca3_op", "FS"),
                        ("ts3_v13", "FV")):
        shared = builtin_bundle(name)
        # a bundle object of its own, so this test fills every memo it reads
        bundle = StructureBundle(shared.table, shared.singular, shared.virtual)
        n, full = bundle.n, (1 << bundle.n) - 1
        for _ in range(25):
            budget = {kind: 4 for kind in kinds}
            budget["components"] = rng.randint(1, 3)
            p = extract_relations(random_code(budget, seed=rng.randrange(2 ** 30)))
            constraints = present._constraints(p, bundle)
            tables = [(con[0], table_rows(con)) for con in constraints]
            watchers = [[c for c, con in enumerate(constraints) if lab in con[0]]
                        for lab in range(len(p.generators))]
            for _ in range(8):
                domains = [full if rng.random() < 0.5 else rng.randint(1, full)
                           for _ in p.generators]
                expected = plain_gac(tables, domains, n)
                ok = present._arc_consistent(constraints, watchers, domains,
                                             range(len(constraints)), full)
                assert ok == (expected is not None)
                if ok:
                    assert domains == expected
                verdicts[ok] += 1
        assert memo_entries_checked(bundle) >= 100
    assert min(verdicts.values()) >= 100, verdicts


def test_order_16_trivial_table_colors_each_component_once():
    # up(x,y) = dn(x,y) = x: each component keeps one value, and every
    # value set is closed, so its image is the set of component values
    n = 16
    block = "".join(" ".join([str(x)] * n) + "\n" for x in range(1, n + 1))
    bundle = parse_table_text(f"semiquandle {n}\n\n{block}\n{block}")
    codes = ("comp: F1.sup F1.sub",
             "comp: F1.sup F2.sub\ncomp: F1.sub F2.sup",
             "comp: F1.sup F3.sub\ncomp: F1.sub F2.sup\ncomp: F2.sub F3.sup")
    for k, text in enumerate(codes, 1):
        p = extract_relations(parse_code(text + "\n"))
        start = time.perf_counter()
        assert count_colorings(p, bundle) == n ** k
        result = enhanced_invariant(p, bundle)
        assert time.perf_counter() - start < 1
        assert list(result.image_sizes) == sorted(
            len(set(values)) for values in itertools.product(range(n), repeat=k))


# ---------------------------------------------------------------------------
# polynomial formatting and error paths

def test_polynomial_text_formatting():
    assert polynomial_text([]) == "0"
    assert polynomial_text([1]) == "z"
    assert polynomial_text([3, 3, 3]) == "3z^3"
    assert polynomial_text([1, 2, 2, 4]) == "z + 2z^2 + z^4"


def test_missing_extension_errors():
    with pytest.raises(MissingExtensionError):
        count_colorings(builtin("singular_unknot_1"), T4)
    with pytest.raises(MissingExtensionError):
        count_colorings(parse_presentation("v(a)=b"), T4)


def test_enhanced_invariant_is_deterministic():
    r1 = enhanced_invariant(builtin("flat_kishino"), T4)
    r2 = enhanced_invariant(builtin("flat_kishino"), T4)
    assert r1 == r2
    assert r1.count == 16

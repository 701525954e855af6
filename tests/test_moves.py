"""Move catalog: independent soundness re-verification, randomized
invariance trials, round trips, canonical forms, the derived reverse
slide, and the forbidden move."""

import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import semiquandles.moves as moves
from semiquandles.algebra import (SingularExtension, StructureBundle,
                                  VirtualExtension, builtin_bundle)
from semiquandles.diagram import Pass, PassCode, parse_code, extract_relations
from semiquandles.moves import (
    MOVE_IDS, MoveError, MoveSpec, apply_move, inverse_of, applicable_moves,
    canonical, moves_of, random_code, run_move_trials,
    _INSERTS, _TRIANGLE_MOVE, _sound, _triangles,
)
from semiquandles.present import enhanced_invariant

T4_SING = builtin_bundle("t4_sing")
CA3_OP = builtin_bundle("ca3_op")

TRIAL_BUNDLES = [(name, builtin_bundle(name))
                 for name in ("t4", "ca3_op", "ts3_v13", "t4_sing")]


def poly(code, bundle):
    return enhanced_invariant(extract_relations(code), bundle).polynomial


# ---------------------------------------------------------------------------
# independent soundness oracle
#
# A rewrite configuration is a set of strands, each passing through two
# of the shared crossings.  Soundness: for every structure bundle, the
# multiset of boundary colorings -- tuples (in, out) per strand that
# admit a consistent internal coloring -- is the same before and after
# the rewrite, which makes the coloring sets of any two codes related
# by the rewrite correspond bijectively.

def _op(ops, kind, role):
    """The 0-based map (own color, other strand's color) -> output color
    of one pass, read from a bundle's compiled operations."""
    if kind == "V":
        v = ops["v"]
        t = v if role == "v+" else {y: x for x, y in enumerate(v)}
        return lambda me, other: t[me]
    t = ops[{"F": {"sup": "up", "sub": "dn"},
             "S": {"sup": "hup", "sub": "hdn"}}[kind][role]]
    return lambda me, other: t[me][other]


def boundary_multiset(bundle, strands):
    incident = {}
    for si, st in enumerate(strands):
        for pi, (cx, _, _) in enumerate(st):
            incident.setdefault(cx, []).append((si, pi))
    # per strand, per pass: its operation and the other pass at its
    # crossing, found by (strand, pass) index so that a kink's two passes
    # on one strand are partners
    steps = [[(_op(bundle.ops, kind, role),
               *next(e for e in incident[cx] if e != (si, pi)))
              for pi, (cx, kind, role) in enumerate(st)]
             for si, st in enumerate(strands)]
    k = len(strands)
    sols = Counter()
    rng = range(bundle.n)
    for ins in itertools.product(rng, repeat=k):
        for mids in itertools.product(rng, repeat=k):
            col = [(ins[s], mids[s]) for s in range(k)]
            ok = True
            outs = [None] * k
            for si, st in enumerate(steps):
                for pi, (op, osi, opi) in enumerate(st):
                    got = op(col[si][pi], col[osi][opi])
                    if pi == 0:
                        if got != mids[si]:
                            ok = False
                            break
                    else:
                        outs[si] = got
                if not ok:
                    break
            if ok:
                sols[tuple(x for s in range(k) for x in (ins[s], outs[s]))] += 1
    return sols


_FLIP = {"sup": "sub", "sub": "sup", "v+": "v+", "v-": "v-"}


def rewritten(strands, action):
    out = []
    for st in strands:
        if action == "slide":
            out.append(tuple((cx, kind, _FLIP[role])
                             for cx, kind, role in reversed(st)))
        else:
            out.append(tuple(reversed(st)))
    return out


def triangle_strands(kinds, firsts, prims):
    cross_strands = {"A": (0, 1), "B": (0, 2), "C": (1, 2)}
    strand_crossings = {0: "AB", 1: "AC", 2: "BC"}
    primary = {"F": ("sup", "sub"), "S": ("sup", "sub"), "V": ("v+", "v-")}
    kind_of = dict(zip("ABC", kinds))
    roles = {}
    for ci, cx in enumerate("ABC"):
        p, q = primary[kind_of[cx]]
        pair = cross_strands[cx]
        bit = int(prims[ci])
        roles[(cx, pair[bit])] = p
        roles[(cx, pair[1 - bit])] = q
    strands = []
    for s in range(3):
        xs = strand_crossings[s]
        order = xs if firsts[s] == "0" else xs[::-1]
        strands.append(tuple((cx, kind_of[cx], roles[(cx, s)]) for cx in order))
    return strands


ORACLE_BUNDLES = (
    StructureBundle(CA3_OP.table, CA3_OP.singular, VirtualExtension((3, 1, 2))),
    StructureBundle(T4_SING.table, T4_SING.singular, VirtualExtension((3, 4, 1, 2))),
    # flat singular structure (hat ops equal the flat ops): separates
    # role assignments the operator structures cannot
    StructureBundle(CA3_OP.table, SingularExtension(CA3_OP.table.up, CA3_OP.table.dn),
                    VirtualExtension((2, 3, 1))),
)


def config_is_sound(strands, action):
    after = rewritten(strands, action)
    return all(boundary_multiset(b, strands) == boundary_multiset(b, after)
               for b in ORACLE_BUNDLES)


def test_triangle_catalog_matches_exhaustive_boundary_search():
    @functools.cache
    def triangle_multiset(fam, firsts, prims, b):
        # once per configuration and bundle: a swap reuses the multiset
        # of the configuration it swaps to
        return boundary_multiset(ORACLE_BUNDLES[b],
                                 triangle_strands(fam, firsts, prims))

    catalog = {variant for _, variant, _ in _triangles(_TRIANGLE_MOVE, _sound)}
    families = ("FFF", "SFF", "FSF", "FFS", "VVV", "FVV", "VFV", "VVF",
                "SVV", "VSV", "VVS", "FFV", "FVF", "VFF")
    flip = str.maketrans("01", "10")
    found = {fam: set() for fam in families}
    for fam in families:
        for firsts in itertools.product("01", repeat=3):
            for prims in itertools.product("01", repeat=3):
                f, p = "".join(firsts), "".join(prims)
                # the swap of a triangle is the configuration of the same
                # family with every firsts bit flipped
                swapped = f.translate(flip)
                assert (rewritten(triangle_strands(fam, f, p), "swap")
                        == triangle_strands(fam, swapped, p))
                if all(triangle_multiset(fam, f, p, b)
                       == triangle_multiset(fam, swapped, p, b)
                       for b in range(len(ORACLE_BUNDLES))):
                    found[fam].add(f"{fam}:{f}:{p}")
    # the catalog holds exactly the sound configurations of its families
    in_catalog = {fam: {t for t in catalog if t.startswith(fam)}
                  for fam in families}
    for fam in ("FFF", "SFF", "FSF", "FFS", "VVV", "FVV", "VFV", "VVF"):
        assert found[fam] == in_catalog[fam], fam
    # flat-flat-virtual triangles are never sound: the forbidden move
    for fam in ("FFV", "FVF", "VFF"):
        assert found[fam] == set(), fam
        assert in_catalog[fam] == set()
    # sound singular-virtual-virtual triangles exist but stay outside
    # the move id set by design
    for fam in ("SVV", "VSV", "VVS"):
        assert len(found[fam]) == 32, fam
        assert in_catalog[fam] == set()


def kinks_and_bigons(kind):
    """Every kink and bigon of one crossing kind: a strand through both
    passes of X in either role order, and two strands through X and Y in
    every role assignment, meeting Y second (parallel) or first."""
    r = {"F": ("sup", "sub"), "V": ("v+", "v-")}[kind]
    for lead in (0, 1):
        yield [(("X", kind, r[lead]), ("X", kind, r[1 - lead]))]
    for x0, y0, antiparallel in itertools.product((0, 1), (0, 1), (False, True)):
        s1 = (("X", kind, r[1 - x0]), ("Y", kind, r[1 - y0]))
        yield [(("X", kind, r[x0]), ("Y", kind, r[y0])),
               s1[::-1] if antiparallel else s1]


def relabeled_orders(strands):
    """The strands in every order, crossings relabeled by first appearance."""
    out = set()
    for perm in itertools.permutations(strands):
        names = {}
        out.add(tuple(tuple((names.setdefault(cx, len(names)), kind, role)
                            for cx, kind, role in st) for st in perm))
    return out


def test_insert_catalog_matches_exhaustive_boundary_search():
    # an insert is sound when its boundary colorings are those of the
    # bare strands: each output equals its input, once per input tuple
    sound, configurations = set(), 0
    for kind in "FV":
        for strands in kinks_and_bigons(kind):
            configurations += 1
            if all(boundary_multiset(b, strands) == Counter(
                       tuple(x for i in ins for x in (i, i))
                       for ins in itertools.product(range(b.n), repeat=len(strands)))
                   for b in ORACLE_BUNDLES):
                sound |= relabeled_orders(strands)
    assert configurations == 20
    catalog = set().union(*map(relabeled_orders, _INSERTS.values()))
    assert len(_INSERTS) == 12 and sound == catalog


def slide_strands(first0, first1, sup_on_0_f, sup_on_0_s):
    """Two strands through one flat crossing X and one singular Y."""
    role_f = {0: "sup" if sup_on_0_f else "sub"}
    role_f[1] = "sub" if sup_on_0_f else "sup"
    role_s = {0: "sup" if sup_on_0_s else "sub"}
    role_s[1] = "sub" if sup_on_0_s else "sup"
    strands = []
    for s, first in ((0, first0), (1, first1)):
        seq = [("X", "F", role_f[s]), ("Y", "S", role_s[s])]
        if first == "1":
            seq.reverse()
        strands.append(tuple(seq))
    return strands


def test_slide_soundness_exactly_four_patterns():
    sound = set()
    for bits in itertools.product((0, 1), repeat=4):
        first0, first1 = str(bits[0]), str(bits[1])
        strands = slide_strands(first0, first1, bits[2], bits[3])
        if config_is_sound(strands, "slide"):
            sound.add(bits)
    # sound iff the strand taking sup at the flat crossing takes sub at
    # the singular one; both parallel (primitive sR2) and antiparallel
    # (derived reverse slide) strand orders qualify
    assert sound == {bits for bits in itertools.product((0, 1), repeat=4)
                     if bits[2] != bits[3]}
    parallel = {b for b in sound if b[0] == b[1]}
    antiparallel = sound - parallel
    assert len(parallel) == 4 and len(antiparallel) == 4


# ---------------------------------------------------------------------------
# randomized invariance trials

def test_move_trials_500_random_cases_no_failures():
    report = run_move_trials(TRIAL_BUNDLES, trials=500, seed=0)
    assert report["trials"] == 500
    assert report["failures"] == []
    assert set(report["per_move"]) == set(MOVE_IDS)
    assert all(report["per_move"][m] > 0 for m in MOVE_IDS)


def test_move_trials_deterministic_in_seed():
    a = run_move_trials(TRIAL_BUNDLES, trials=30, seed=7)
    b = run_move_trials(TRIAL_BUNDLES, trials=30, seed=7)
    assert a == b


def test_one_moves_candidates_are_its_share_of_the_full_list():
    # a trial draws from this list by index, so order matters as much as content
    rng = random.Random(14)
    inserted = 0
    for _ in range(200):
        budget = {kind: 2 for kind in "FSV"}
        budget["components"] = rng.randint(1, 2)
        code = random_code(budget, seed=rng.randrange(2 ** 30))
        listed = applicable_moves(code)
        for move in MOVE_IDS:
            assert moves_of(code, move) == [m for m in listed if m.move == move]
        inserted += sum(m.direction == "insert" for m in listed)
    assert inserted > 0


def test_move_trials_reject_a_negative_count():
    with pytest.raises(ValueError):
        run_move_trials(TRIAL_BUNDLES, trials=-1)
    empty = run_move_trials(TRIAL_BUNDLES, trials=0)
    assert empty["per_move"] == dict.fromkeys(MOVE_IDS, 0)
    # sR2 and sR3 need a bundle with a singular extension
    with pytest.raises(ValueError, match="at least one bundle with a singular extension"):
        run_move_trials([("t4", builtin_bundle("t4"))])


# ---------------------------------------------------------------------------
# round trips and error paths

def test_insert_then_inverse_restores_code():
    # every site tuple, also those where two segments share a site, as
    # the inverse of a delete of adjacent segments does
    base = parse_code("comp: S1.sup F1.sub S1.sub F1.sup\n")
    positions = [(ci, i) for ci, comp in enumerate(base.components)
                 for i in range(len(comp) + 1)]
    for (move, variant), template in _INSERTS.items():
        for site in itertools.product(positions, repeat=len(template)):
            m = MoveSpec(move, "insert", site, variant)
            moved = apply_move(base, m)
            assert apply_move(moved, inverse_of(moved, m)) == base, m


def test_delete_then_inverse_restores_code_up_to_ids():
    code = parse_code("comp: F1.sup F1.sub F2.sup V1.v+ F2.sub V1.v-\n")
    deletes = [m for m in applicable_moves(code) if m.direction == "delete"]
    assert deletes
    for m in deletes:
        moved = apply_move(code, m)
        back = apply_move(moved, inverse_of(moved, m))
        assert canonical(back) == canonical(code), m


def test_every_listed_delete_is_undone_by_its_inverse():
    # the inverse of a delete that ends its component inserts at the
    # end; two adjacent segments on one component collapse onto one site
    at_end = shared_site = 0
    for seed in range(40):
        for ncomp in (1, 2, 3):
            code = random_code({"F": 3, "V": 2, "S": 1, "components": ncomp},
                               seed=seed)
            for m in applicable_moves(code):
                if m.direction != "delete":
                    continue
                moved = apply_move(code, m)
                inverse = inverse_of(moved, m)
                back = apply_move(moved, inverse)
                assert canonical(back) == canonical(code), (m, code.text())
                # and the re-insert is undone by its own inverse
                assert apply_move(back, inverse_of(back, inverse)) == moved, (m, code.text())
                at_end += any(i == len(moved.components[ci]) for ci, i in inverse.site)
                shared_site += len(set(inverse.site)) < len(inverse.site)
    assert at_end and shared_site


def test_delete_at_the_end_of_a_component_restores_the_text():
    code = parse_code("comp: F1.sup F2.sup F1.sub F2.sub F3.sup F3.sub\n")
    m = MoveSpec("fR1", "delete", ((0, 4),), "sup_first")
    moved = apply_move(code, m)
    assert apply_move(moved, inverse_of(moved, m)) == code


def test_rewrite_is_involutive_at_its_site():
    code = parse_code(
        "comp: F1.sup F2.sup\ncomp: F1.sub F3.sup\ncomp: F2.sub F3.sub\n")
    rewrites = [m for m in applicable_moves(code) if m.direction == "apply"]
    assert any(m.move == "fR3" for m in rewrites)
    for m in rewrites:
        moved = apply_move(code, m)
        back = apply_move(moved, inverse_of(moved, m))
        assert canonical(back) == canonical(code), m


def test_apply_move_error_paths():
    code = parse_code("comp: F1.sup F1.sub\n")
    with pytest.raises(MoveError):
        apply_move(code, MoveSpec("fR3", "apply", ((0, 0),), "FFF:000:000"))
    with pytest.raises(MoveError):
        apply_move(code, MoveSpec("fR1", "insert", ((9, 9),), "sup_first"))
    with pytest.raises(MoveError):
        apply_move(code, MoveSpec("fR1", "noop", ((0, 0),), "sup_first"))
    with pytest.raises(MoveError):
        apply_move(code, MoveSpec("fR2", "delete", ((0, 0), (0, 1)), "direct"))
    with pytest.raises(MoveError, match="unknown insert fR1/nope"):
        apply_move(code, MoveSpec("fR1", "insert", ((0, 0),), "nope"))
    with pytest.raises(MoveError, match="fR2 needs 2 sites"):
        apply_move(code, MoveSpec("fR2", "insert", ((0, 0),), "direct"))
    with pytest.raises(MoveError, match=r"no rewrite pattern at \(\(0, 0\),\) after fR3"):
        inverse_of(code, MoveSpec("fR3", "apply", ((0, 0),), "FFF:000:000"))
    # a site position outside the code neither wraps nor escapes as IndexError
    for site in ((5, 0), (-1, 0), (0, -1)):
        with pytest.raises(MoveError):
            apply_move(code, MoveSpec("fR1", "delete", (site,), "sup_first"))
    triangle = parse_code(
        "comp: F1.sup F2.sup\ncomp: F1.sub F3.sup\ncomp: F2.sub F3.sub\n")
    m = next(m for m in applicable_moves(triangle) if m.move == "fR3")
    assert m.site == ((0, 0), (1, 0), (2, 0))
    for last in ((5, 0), (-1, 0)):
        with pytest.raises(MoveError):
            apply_move(triangle, MoveSpec("fR3", "apply", m.site[:2] + (last,), m.variant))


def test_random_code_is_deterministic():
    budget = {"F": 2, "S": 1, "V": 1, "components": 2}
    assert random_code(budget, seed=5) == random_code(budget, seed=5)


# ---------------------------------------------------------------------------
# canonical forms against the brute-force oracle

def naive_canonical(code: PassCode) -> PassCode:
    """Oracle: minimize the relabeled text over every reordering of
    equal-length components and every rotation of each component."""
    comps = sorted(code.components, key=len)
    blocks = []
    for _, group in itertools.groupby(comps, key=len):
        blocks.append(list(group))
    rotated = []
    for block in blocks:
        perms = [block] if len(block[0]) == 0 else \
            [list(p) for p in itertools.permutations(block)]
        rotated.append(perms)
    best = None
    for ordering in itertools.product(*rotated):
        ordered = [c for block in ordering for c in block]
        opts = [[c] if len(c) <= 1 else
                [c[i:] + c[:i] for i in range(len(c))] for c in ordered]
        for combo in itertools.product(*opts):
            ids = {}
            out_comps = []
            for comp in combo:
                out = []
                for p in comp:
                    key = p.crossing
                    if key not in ids:
                        ids[key] = sum(1 for k in ids if k[0] == p.kind) + 1
                    out.append(Pass(p.kind, ids[key], p.role, p.sign))
                out_comps.append(tuple(out))
            cand = PassCode(tuple(out_comps))
            if best is None or cand.text() < best.text():
                best = cand
    return best


def _cut(passes, rng, ncomp):
    """The passes cut at random points into ncomp components."""
    cuts = sorted(rng.choices(range(len(passes) + 1), k=ncomp - 1))
    bounds = [0, *cuts, len(passes)]
    return PassCode(tuple(tuple(passes[a:b]) for a, b in zip(bounds, bounds[1:])))


def _equal_components(rng, ncomp, length):
    """ncomp components of `length` passes over random F/S/V crossings."""
    roles = {"F": ("sup", "sub"), "S": ("sup", "sub"), "V": ("v+", "v-")}
    passes = [Pass(kind, cid, role)
              for cid in range(1, ncomp * length // 2 + 1)
              for kind in [rng.choice("FSV")] for role in roles[kind]]
    rng.shuffle(passes)
    return PassCode(tuple(tuple(passes[i * length:(i + 1) * length])
                          for i in range(ncomp)))


def _relabeled(code, rng):
    """The same code with every component rotated, the components
    permuted and each kind's crossings renumbered."""
    comps = [c[k:] + c[:k] for c in code.components
             for k in [rng.randrange(len(c)) if c else 0]]
    rng.shuffle(comps)
    ids = {}
    for kind in "FSVC":
        old = sorted({p.cid for c in comps for p in c if p.kind == kind})
        ids.update(((kind, a), b) for a, b in
                   zip(old, rng.sample(range(1, len(old) + 1), len(old))))
    return PassCode(tuple(tuple(Pass(p.kind, ids[p.crossing], p.role, p.sign)
                                for p in c) for c in comps))


def _twins(rng, k, length, pair):
    """k copies of one closed component of `length` passes under fresh
    crossing names, beside two components of `pair` passes through the
    same crossings when pair > 0, relabeled."""
    comp = _equal_components(rng, 1, length).components[0]
    comps = [tuple(Pass(p.kind, p.cid + i * length, p.role, p.sign) for p in comp)
             for i in range(k)]
    if pair:
        roles = {"F": ("sup", "sub"), "S": ("sup", "sub"), "V": ("v+", "v-")}
        kinds = [rng.choice("FSV") for _ in range(pair)]
        comps += [tuple(Pass(kind, k * length + i, roles[kind][side])
                        for i, kind in enumerate(kinds, 1)) for side in (0, 1)]
    return _relabeled(PassCode(tuple(comps)), rng)


def _arrangements(code):
    """The first 100 arrangements of the code's own passes: every order
    of its components, each component in every rotation."""
    return itertools.islice(
        (PassCode(rotated) for order in itertools.permutations(code.components)
         for rotated in itertools.product(*[[c[k:] + c[:k] for k in range(max(len(c), 1))]
                                            for c in order])), 100)


def test_canonical_matches_the_brute_force_oracle():
    rng = random.Random(2)
    codes = []
    for seed in range(120):
        code = random_code({"F": 2, "S": 1, "V": 2, "components": 1 + seed % 4},
                           seed=seed)
        codes.append(PassCode(code.components + ((),)) if seed % 3 == 0 else code)
    for _ in range(40):
        passes = [Pass("C", cid, role, sign)
                  for cid in range(1, rng.randint(1, 4) + 1)
                  for sign in [rng.choice((1, -1))] for role in ("over", "under")]
        rng.shuffle(passes)
        codes.append(_cut(passes, rng, rng.randint(2, 3)))
    # four disjoint kinks tie in every order of the oracle
    codes.append(PassCode(tuple((Pass("F", i, "sup"), Pass("F", i, "sub"))
                                for i in (4, 2, 3, 1))))
    for shape in ((1, 8), (1, 12), (2, 4), (2, 6), (3, 4), (4, 3), (4, 4)):
        codes.append(_equal_components(rng, *shape))
    # (k, length, pair): k closed twins, alone and beside linked
    # components, some of the twins' length; the oracle tries every order
    # of each length's block and every rotation, so k stays small
    for shape in ((2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 4, 0), (2, 4, 1), (2, 4, 2),
                  (3, 2, 0), (3, 2, 1), (3, 4, 0), (3, 4, 1), (4, 2, 0), (4, 2, 1)):
        codes.append(_twins(rng, *shape))
    # every form is a relabeling of its code, which every arrangement
    # shares; a code with one nonempty component has the oracle's form
    single = 0
    for code in codes:
        form, oracle = canonical(code), naive_canonical(code)
        assert naive_canonical(form) == oracle, code.text()
        assert all(canonical(a) == form for a in _arrangements(code)), code.text()
        if sum(1 for c in code.components if c) == 1:
            single += 1
            assert form == oracle, code.text()
    assert 40 < single < len(codes)


def test_canonical_is_relabeling_invariant_beyond_the_oracle():
    rng = random.Random(3)
    for shape in ((5, 4), (6, 4)):
        for _ in range(3):
            code = _equal_components(rng, *shape)
            form = canonical(code)
            assert canonical(_relabeled(code, rng)) == form
            assert canonical(form) == form


def test_canonical_forms_are_pinned():
    # regression value of canonical() since it builds each block's form
    # by rooted walks: the forms of 400 seeded codes of 1-4 components
    digest = hashlib.sha256()
    for seed in range(400):
        code = random_code({"F": 3, "S": 2, "V": 2, "components": 1 + seed % 4},
                           seed=seed)
        digest.update(canonical(code).text().encode())
    assert digest.hexdigest() == (
        "ffdc9f43d419760146af4f5b61ba7e2e65166c78c29350475f9099a2b4c0a4f3")


def _copies_form(k, lines, width):
    """The form of k copies of a link of `width` crossings per kind, whose
    i-th copy has the given lines over ids width*(i-1)+1, +2, ...: copy by
    copy, as blocks of one form are."""
    return "".join(line.format(*range(width * (i - 1) + 1, width * i + 1))
                   for i in range(1, k + 1) for line in lines)


def test_canonical_of_disjoint_kinks_is_fast():
    # k disjoint kinks tie in every order.  A search over component
    # orders keeps k! tied states: about 0.3 s on 7 kinks, and 12 kinks
    # exhaust memory.
    for k in (7, 12, 40):
        code = PassCode(tuple((Pass("F", i, "sup"), Pass("F", i, "sub"))
                              for i in range(k, 0, -1)))
        start = time.perf_counter()
        form = canonical(code)
        assert time.perf_counter() - start < 0.1
        assert form.text() == "".join(f"comp: F{i}.sub F{i}.sup\n"
                                      for i in range(1, k + 1))
    # linked twins: k copies of the flat-virtual Hopf link, and 8 unlinked
    # copies of a 3-component necklace.  A search over the component
    # orders of the whole code keeps k! states of the Hopf copies (0.8 s
    # at k = 7 on a 2-core Xeon, Python 3.11).
    hopf = ("comp: F{0}.sub V{0}.v-\n", "comp: F{0}.sup V{0}.v+\n")
    necklace = ("comp: F{0}.sub F{1}.sup\n", "comp: F{0}.sup F{2}.sub\n",
                "comp: F{1}.sub F{2}.sup\n")
    cases = [("".join(f"comp: F{i}.sup V{i}.v+\ncomp: F{i}.sub V{i}.v-\n"
                      for i in range(k, 0, -1)), _copies_form(k, hopf, 1))
             for k in (7, 10, 20)]
    cases.append(("".join(f"comp: F{3 * j + i + 1}.sup F{3 * j + (i + 1) % 3 + 1}.sub\n"
                          for j in range(8) for i in range(3)),
                  _copies_form(8, necklace, 3)))
    for text, want in cases:
        code = parse_code(text)
        start = time.perf_counter()
        form = canonical(code)
        assert time.perf_counter() - start < 0.1
        assert form.text() == want
    # m one-pass components `V{i}.v+`, each linked to a component of i
    # flat kinks (one block each), and m one-pass components on one hub
    # component (one block): the one-pass components tie on their lines
    # in every order, which a search over component orders pays for with
    # m! states (2.5 s and 6-8 s at m = 8 on 2-core hosts)
    kinks = [" ".join(f"F{i * 8 + j}.sup F{i * 8 + j}.sub" for j in range(i)) for i in range(1, 9)]
    cases = [("".join(f"comp: V{i}.v+\ncomp: V{i}.v- {kinks[i - 1]}\n" for i in range(1, 9)),
              "comp: V1.v+\ncomp: V1.v- F1.sup F1.sub\ncomp: V2.v+\n")]
    cases += [("".join(f"comp: V{i}.v+\n" for i in range(m, 0, -1))
               + "comp: " + " ".join(f"V{i}.v-" for i in range(1, m + 1)) + "\n",
               "comp: V1.v+\ncomp: V1.v- V2.v- V3.v-") for m in (8, 40)]
    for text, head in cases:
        code = parse_code(text)
        start = time.perf_counter()
        form = canonical(code)
        assert time.perf_counter() - start < 0.1
        assert canonical(_relabeled(code, random.Random(8))) == form
        assert canonical(form) == form
        assert form.text().startswith(head)


# ---------------------------------------------------------------------------
# derived move: the reverse slide

REVERSE_INSTANCE = parse_code(
    "comp: F1.sup S1.sub S2.sup S2.sub\n"
    "comp: S1.sup F1.sub S3.sup S3.sub S4.sup S4.sub\n")


def test_reverse_slide_site_is_antiparallel_only():
    sites = moves_of(REVERSE_INSTANCE, "sR2_reverse")
    assert [m.site for m in sites] == [((0, 0), (1, 0))]
    # the primitive (parallel) slide does not match there
    direct = [m for m in applicable_moves(REVERSE_INSTANCE) if m.move == "sR2"]
    assert all(m.site != ((0, 0), (1, 0)) for m in direct)


def test_reverse_slide_preserves_invariants_and_is_involutive():
    m = moves_of(REVERSE_INSTANCE, "sR2_reverse")[0]
    moved = apply_move(REVERSE_INSTANCE, m)
    assert canonical(moved) != canonical(REVERSE_INSTANCE)
    for bundle in (T4_SING, CA3_OP):
        assert poly(moved, bundle) == poly(REVERSE_INSTANCE, bundle)
    m2 = [x for x in moves_of(moved, "sR2_reverse") if x.site == m.site][0]
    assert inverse_of(moved, m) == m2
    assert canonical(apply_move(moved, m2)) == canonical(REVERSE_INSTANCE)


def test_reverse_slide_rejects_parallel_site():
    parallel = parse_code("comp: F1.sup S1.sub\ncomp: F1.sub S1.sup\n")
    assert moves_of(parallel, "sR2_reverse") == []
    with pytest.raises(MoveError):
        apply_move(parallel, MoveSpec("sR2_reverse", "apply",
                                      ((0, 0), (1, 0)), "sup_lead"))


# ---------------------------------------------------------------------------
# forbidden move

FORBIDDEN_WITNESS = parse_code(
    "comp: F1.sub F2.sub F1.sup V3.v+ F2.sup V3.v-\n")
FORBIDDEN_BUNDLE = StructureBundle(T4_SING.table, T4_SING.singular,
                                   VirtualExtension((3, 4, 1, 2)))


def test_forbidden_move_changes_the_enhanced_invariant():
    sites = moves_of(FORBIDDEN_WITNESS, "forbidden")
    target = [m for m in sites if m.site == ((0, 0), (0, 2), (0, 4))]
    assert target and target[0].variant == "FFV:000:110"
    moved = apply_move(FORBIDDEN_WITNESS, target[0])
    assert poly(FORBIDDEN_WITNESS, FORBIDDEN_BUNDLE) == "0"
    assert poly(moved, FORBIDDEN_BUNDLE) == "4z^4"


def test_forbidden_move_is_not_in_the_catalog():
    # the rewrite table holds the forbidden triangle and the reverse
    # slide, but the catalog lists neither
    assert moves_of(FORBIDDEN_WITNESS, "forbidden")
    assert moves_of(REVERSE_INSTANCE, "sR2_reverse")
    rng = random.Random(28)
    codes = [FORBIDDEN_WITNESS, REVERSE_INSTANCE]
    codes += [random_code({"F": 3, "S": 2, "V": 2, "components": rng.randint(1, 3)},
                          seed=rng.randrange(2 ** 30)) for _ in range(60)]
    outside = 0
    for code in codes:
        outside += len(moves_of(code, "forbidden") + moves_of(code, "sR2_reverse"))
        assert {m.move for m in applicable_moves(code)} <= set(MOVE_IDS)
    assert outside > 2


def test_move_tables_are_pinned():
    # regression values of the tables from when they were built at
    # import: a SHA-256 over each table's sorted items
    def digest(items):
        return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()
    # the catalog's rewrites, which applicable_moves reads
    assert digest(moves._tables_of(*MOVE_IDS)[2].items()) == (
        "a479bcae17e26c4b8c5344feeefe18045a84abc5a262561372190c3b0ec2106c")
    assert digest(moves._tables_of("forbidden")[2].items()) == (
        "d9126788332d3adba930df8b37dda3f4cee4e23e8c9a783e2e66cdcf67baf9c4")
    assert digest(moves._tables_of("sR2_reverse")[2].items()) == (
        "8416828c62536adc2a0663cf013782f535042a197dc0b64b1c334e72c64595de")
    assert digest(moves._DELETES.items()) == (
        "92f64c5ad59ac70b0bc04f1b837762c54dbdcc525998f9b36f4383cdd009c886")
    assert digest((m, tuple(sorted(t.items()) for t in moves._tables_of(m)))
                  for m in MOVE_IDS) == (
        "fb5323da30263e2e2cf305a89b72806ab7958ea53a8fa8122e57090f2170a469")


def test_importing_the_cli_builds_no_move_table():
    # a fresh interpreter, since this one has loaded every module; the CLI
    # loads a verb's own module only when that verb runs, and no module
    # loads dataclasses
    src = str(Path(moves.__file__).resolve().parent.parent)
    probe = ("import sys; before = set(sys.modules); import semiquandles.cli; "
             "print(sorted((set(sys.modules) - before) & {'semiquandles.moves', "
             "'semiquandles.enumeration', 'semiquandles.vassiliev', 'dataclasses'})); "
             "import semiquandles; m = semiquandles.moves; print(m.MOVE_IDS[0], "
             "[f.cache_info().currsize for f in (m._rewrites, m._tables_of)])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nfR1 [0, 0]\n"

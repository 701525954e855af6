"""Acceptance gate: one pass/fail line per criterion.

Each criterion prints its verdict directly to the terminal (bypassing
capture) so the gate is visible in any pytest run.  A criterion only
prints PASS after every one of its checks has succeeded.
"""

import itertools
import json
import random
import time

import pytest

from semiquandles.algebra import (StructureBundle, VirtualExtension,
                                  builtin_bundle, check_semiquandle,
                                  check_singular, check_virtual, evaluate,
                                  make_constant_action, subclosure)
from semiquandles.cli import main
from semiquandles.diagram import builtin_code, extract_relations, parse_code
from semiquandles.enumeration import enumerate_semiquandles
from semiquandles.moves import (apply_forbidden, apply_reverse_slide,
                                canonical, forbidden_sites,
                                reverse_slide_sites, run_move_trials)
from semiquandles.present import (Presentation, Relation, builtin, colorings,
                                  count_colorings, enhanced_invariant)
from semiquandles.vassiliev import distinguish


def verdict(capsys, ok, line):
    with capsys.disabled():
        print(("PASS: " if ok else "FAIL: ") + line)
    assert ok, line


def test_criterion_1_axiom_verification_catches_corruptions(capsys):
    t0 = time.monotonic()
    t4 = builtin_bundle("t4").table
    ok = not check_semiquandle(t4.up, t4.dn)
    t4s = builtin_bundle("t4_sing")
    ok = ok and not check_singular(t4s.table.up, t4s.table.dn,
                                   t4s.singular.hup, t4s.singular.hdn)
    ts3 = builtin_bundle("ts3_v13")
    ok = ok and not check_virtual(ts3.table.up, ts3.table.dn, ts3.virtual.v)
    witnessed = 0
    for row in itertools.permutations((1, 2, 3, 4)):
        if row == t4.up[0]:
            continue
        violations = check_semiquandle((row,) + t4.up[1:], t4.dn)
        if violations and all(v.witness for v in violations):
            witnessed += 1
    ok = ok and witnessed == 23
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    verdict(capsys, ok, "criterion 1 - axiom verification: builtin tables "
            "valid (flat, singular, virtual); all 23 first-row corruptions "
            f"rejected with witnesses in {elapsed:.3f}s")


def test_criterion_2_reference_invariant_values(capsys):
    t4 = builtin_bundle("t4")
    ca3_op = builtin_bundle("ca3_op")
    checks = []
    for name, bundle, expect_count, expect_poly in (
        ("flat_kishino", t4, 16, None),
        ("unknot", t4, 4, None),
        ("triple_crazy_trefoil", ca3_op, 0, "0"),
        ("singular_unknot_1", ca3_op, 9, "9z^3"),
    ):
        t0 = time.monotonic()
        r = enhanced_invariant(builtin(name), bundle)
        elapsed = time.monotonic() - t0
        good = r.count == expect_count and elapsed < 1.0
        if expect_poly is not None:
            good = good and r.polynomial == expect_poly
        checks.append(good)
    verdict(capsys, all(checks), "criterion 2 - reference values: "
            "kishino 16, unknot 4, glued code 0, singular kink 9z^3, "
            "each under 1s")


def test_criterion_3_analytic_cross_checks(capsys):
    # glued code over the constant-action structure: relations force
    # sigma(a) = a for the fixed-point-free sigma = (1 3 2), so count 0
    sigma = {1: 3, 2: 1, 3: 2}
    witnesses = []
    for a in (1, 2, 3):
        for c in (1, 2, 3):
            b, d = sigma[c], sigma[a]
            if sigma[b] == a and sigma[d] == c:
                witnesses.append((a, c))
    ca3_op = builtin_bundle("ca3_op")
    ok = (witnesses == [] and all(sigma[x] != x for x in sigma)
          and count_colorings(builtin("triple_crazy_trefoil"), ca3_op) == 0)
    # every coloring of the singular kink generates the whole order-3 set
    closures = [len(subclosure(ca3_op, set(f.values())))
                for f in colorings(builtin("singular_unknot_1"), ca3_op)]
    ok = ok and closures != [] and all(s == 3 for s in closures)
    verdict(capsys, ok, "criterion 3 - analytic cross-checks: fixed-point "
            "argument gives count 0; all singular-kink coloring images "
            "close to size 3")


def _naive_count(p, bundle):
    total = 0
    for values in itertools.product(range(1, bundle.n + 1),
                                    repeat=len(p.generators)):
        a = dict(zip(p.generators, values))
        ok = True
        for rel in p.relations:
            if rel.kind == "v":
                got = evaluate(bundle, "v", a[rel.args[0]])
            else:
                got = evaluate(bundle, rel.kind, a[rel.args[0]], a[rel.args[1]])
            if got != a[rel.result]:
                ok = False
                break
        if ok:
            total += 1
    return total


def test_criterion_4_oracle_equivalence(capsys):
    rng = random.Random(20260823)
    t4 = builtin_bundle("t4")
    ca3_op = builtin_bundle("ca3_op")
    ts3 = builtin_bundle("ts3_v13")
    bundles = [(t4, ("up", "dn")),
               (ca3_op, ("up", "dn", "hup", "hdn")),
               (ts3, ("up", "dn", "v")),
               (ts3.with_trivial_extensions(), ("up", "dn", "hup", "hdn", "v"))]
    from semiquandles.present import BUILTIN_PRESENTATIONS
    mismatches = 0
    for name in BUILTIN_PRESENTATIONS:
        p = builtin(name)
        for bundle in (ca3_op, ts3.with_trivial_extensions()):
            if count_colorings(p, bundle) != _naive_count(p, bundle):
                mismatches += 1
    for _ in range(50):
        bundle, kinds = rng.choice(bundles)
        n_gens = rng.randint(1, 6)
        if bundle.n ** n_gens > 10 ** 6:
            n_gens = 4
        gens = tuple(f"g{i}" for i in range(n_gens))
        rels = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.choice(kinds)
            args = ((rng.choice(gens),) if kind == "v"
                    else (rng.choice(gens), rng.choice(gens)))
            rels.append(Relation(kind, args, rng.choice(gens)))
        p = Presentation(gens, tuple(rels))
        if count_colorings(p, bundle) != _naive_count(p, bundle):
            mismatches += 1
    # enumeration cross-checks: order 2 equals the naive filter; order 3
    # contains the 6 constant-action tables
    naive2 = []
    for flat in itertools.product((1, 2), repeat=8):
        up, dn = (flat[0:2], flat[2:4]), (flat[4:6], flat[6:8])
        if not check_semiquandle(up, dn):
            naive2.append((up, dn))
    got2 = sorted((t.up, t.dn) for t in enumerate_semiquandles(2))
    have3 = {(t.up, t.dn) for t in enumerate_semiquandles(3)}
    const3 = sum(1 for s in itertools.permutations((1, 2, 3))
                 if (lambda t: (t.up, t.dn))(make_constant_action(3, s)) in have3)
    ok = mismatches == 0 and got2 == sorted(naive2) and const3 == 6
    verdict(capsys, ok, "criterion 4 - oracle equivalence: every builtin "
            "presentation and 50 random presentations match the naive "
            "solver; order-2 enumeration equals the naive filter; order 3 "
            "contains all 6 constant-action tables")


def test_criterion_5_move_invariance_suite(capsys):
    t0 = time.monotonic()
    bundles = [(name, builtin_bundle(name))
               for name in ("t4", "ca3_op", "ts3_v13", "t4_sing")]
    report = run_move_trials(bundles, trials=500, seed=0)
    ok = report["trials"] >= 500 and report["failures"] == []
    # derived move (reverse slide) preserves the invariants too
    inst = parse_code("comp: F1.sup S1.sub S2.sup S2.sub\n"
                      "comp: S1.sup F1.sub S3.sup S3.sub S4.sup S4.sub\n")
    m = reverse_slide_sites(inst)[0]
    moved = apply_reverse_slide(inst, m)
    ok = ok and canonical(moved) != canonical(inst)
    for name in ("t4_sing", "ca3_op"):
        b = builtin_bundle(name)
        ok = ok and (enhanced_invariant(extract_relations(inst), b)
                     == enhanced_invariant(extract_relations(moved), b))
    # the forbidden move changes an invariant
    witness = parse_code("comp: F1.sub F2.sub F1.sup V3.v+ F2.sup V3.v-\n")
    t4s = builtin_bundle("t4_sing")
    fb = StructureBundle(t4s.table, t4s.singular, VirtualExtension((3, 4, 1, 2)))
    site = [x for x in forbidden_sites(witness)
            if x.site == ((0, 0), (0, 2), (0, 4))][0]
    before = enhanced_invariant(extract_relations(witness), fb).polynomial
    after = enhanced_invariant(
        extract_relations(apply_forbidden(witness, site)), fb).polynomial
    ok = ok and before == "0" and after == "4z^4"
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    verdict(capsys, ok, "criterion 5 - moves: 500 randomized trials over 4 "
            "bundles with no failures, derived reverse slide preserves "
            "invariants, forbidden move changes 0 to 4z^4, in "
            f"{elapsed:.1f}s")


def test_criterion_6_distinguishing_power(capsys):
    ts3 = builtin_bundle("ts3_v13")
    hopf = enhanced_invariant(
        extract_relations(builtin_code("flat_virtual_hopf")), ts3)
    unlink = enhanced_invariant(
        extract_relations(builtin_code("unlink_2")), ts3)
    ok = (hopf.polynomial != unlink.polynomial
          and unlink.polynomial == "z + 4z^2 + 4z^3")
    k1 = parse_code("comp: C1.over+ C2.over+ C1.under+ C2.under+\n")
    k2 = parse_code("comp: C1.over+ C2.over- C1.under+ C2.under-\n")
    r = distinguish(k1, k2, (builtin_bundle("t4_sing"),))
    ok = ok and r["conclusion"] == "inequivalent" and r["witnesses"]
    verdict(capsys, ok, "criterion 6 - distinguishing power: virtual hopf "
            "vs unlink(2) separated (unlink pinned z + 4z^2 + 4z^3); "
            "resolution sums separate the double-twist pair")


def test_criterion_7_determinism(capsys, pytestconfig):
    import io
    import contextlib

    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        return rc, buf.getvalue()

    runs = [capture(["moves-test", "--trials", "24", "--seed", "5", "--json"])
            for _ in range(3)]
    ok = all(rc == 0 for rc, _ in runs) and len({out for _, out in runs}) == 1
    a = capture(["enumerate", "--n", "3", "--iso", "--json"])
    runs = [capture(["enumerate", "--n", "3", "--iso", "--json", "--jobs", jobs])
            for jobs in ("1", "3", "8")]
    ok = ok and a[0] == 0 and all(r == a for r in runs)
    report = run_move_trials(
        [("t4_sing", builtin_bundle("t4_sing"))], trials=10, seed=42)
    report2 = run_move_trials(
        [("t4_sing", builtin_bundle("t4_sing"))], trials=10, seed=42)
    ok = ok and json.dumps(report, sort_keys=True) == \
        json.dumps(report2, sort_keys=True)
    verdict(capsys, ok, "criterion 7 - determinism: fixed seeds give byte-"
            "identical output, and enumerate's across --jobs 1/3/8")

"""The three workloads: their inputs, operations and output checks.

`BUILD[name](pkg, seed, inputs)` generates a workload's inputs from the
seed, writes the files it passes to the command line under `inputs`,
parses each written file back with the package's own parser, and
returns the operation list.  An operation is a call of `cli.main` with
stdout and stderr captured, or a direct library call where no verb
exists.  Its check runs once, outside the timed passes, on the output of
the untimed warm-up pass; it compares the output with `oracle`'s
independent computation or tests a property the method must have.

Inputs whose cost sets `wall_s` and `op_tail_ms` come from fixed ladder
seeds; the run's seed picks the small codes, the relabelings the checks
use, the move-trial seeds and the order of the operations.  See README.md
for why.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

import oracle


class Mismatch(Exception):
    """An output that disagrees with its check."""


def expect(cond, reason) -> None:
    if not cond:
        raise Mismatch(reason)


class Raised(NamedTuple):
    """The output of an operation that raised."""
    type: str
    message: str


def not_raised(res) -> None:
    if isinstance(res, Raised):
        raise Mismatch(f"raised {res.type}: {res.message}")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], None]     # raises Mismatch on a bad output


def call_cli(pkg, argv) -> tuple:
    """cli.main(argv) with its output captured; main is looked up at each
    call, so a traced run sees it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = pkg.cli.main(argv)
    return ("exit", code, out.getvalue(), err.getvalue())


def ok_stdout(res) -> str:
    not_raised(res)
    expect(res[1] == 0, f"exit {res[1]}: {(res[2] + res[3]).strip()}")
    return res[2]


def ok_json(res):
    return json.loads(ok_stdout(res))


def documented_error(res, _results) -> None:
    """Invalid input: exit code 1 and a one-line message, no traceback."""
    not_raised(res)
    lines = [ln for ln in (res[2] + res[3]).splitlines() if ln.strip()]
    expect(res[1] == 1 and len(lines) == 1,
           f"exit {res[1]} with {len(lines)} lines: {(res[2] + res[3]).strip()!r}")


def zero_based(bundle) -> tuple:
    """(ops by name, v, n) of a package bundle, 0-based."""
    def z(t):
        return tuple(tuple(e - 1 for e in row) for row in t)
    ops = {"up": z(bundle.table.up), "dn": z(bundle.table.dn)}
    if bundle.singular is not None:
        ops["hup"], ops["hdn"] = z(bundle.singular.hup), z(bundle.singular.hdn)
    v = tuple(e - 1 for e in bundle.virtual.v) if bundle.virtual else None
    return ops, v, bundle.n


def write(inputs, name, text) -> str:
    path = inputs / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# invariants

NAIVE_MAX = 20_000          # largest n ** semiarcs enumerated by the oracle
BUNDLES = ("t4", "t4_sing", "ca3", "ca3_op", "ts3_v13")
SINGULAR = ("t4_sing", "ca3_op")

# (name, kinds of the ladder family, crossings, codes per size, bundles)
LADDER = (
    ("flat", "F", range(4, 11), 2, ("t4",)),
    ("sing", "FS", range(2, 9, 2), 2, SINGULAR),
    ("virt", "FV", range(4, 11, 2), 1, ("ts3_v13",)),
)
# (name, kinds, crossing range, codes, bundles) drawn from the run's seed
SAMPLE = (
    ("flat", "F", (3, 5), 2, ("t4",)),
    ("sing", "FS", (2, 4), 1, SINGULAR),
    ("virt", "FV", (3, 5), 1, ("ts3_v13",)),
)
VASSILIEV_LADDER = (3, 4, 5, 6)
DOUBLE_TWIST = ("comp: C1.over+ C2.over+ C1.under+ C2.under+\n",
                "comp: C1.over+ C2.over- C1.under+ C2.under-\n")
PROBES = ("t4_sing", "ca3_op")


def _counts(kinds: str, crossings: int) -> dict:
    out = {}
    for i in range(crossings):
        out[kinds[i % len(kinds)]] = out.get(kinds[i % len(kinds)], 0) + 1
    return out


def _presentation_text(comps) -> str:
    nlabels, rels = oracle.relations(comps)
    lines = ["gens: " + " ".join(f"s{i}" for i in range(nlabels))]
    for r in rels:
        if r[0] == "v":
            lines.append(f"v(s{r[1]})=s{r[2]}")
        else:
            lines.append(f"{r[0]}(s{r[1]},s{r[2]})=s{r[3]}")
    return "\n".join(lines) + "\n"


def _paper_value(name: str, dia) -> Optional[tuple]:
    """A value the paper states for a builtin diagram over a bundle."""
    if name == "unknot":
        return ("count", dia.bundle.n)
    return {("flat_kishino", "t4"): ("count", 16),
            ("singular_unknot_1", "ca3_op"): ("poly", "9z^3")}.get((name, dia.bundle_name))


def _presentation_relations(p) -> tuple:
    """(number of generators, oracle relations) of a package Presentation."""
    index = {g: i for i, g in enumerate(p.generators)}
    return len(index), tuple((r.kind, *(index[a] for a in r.args), index[r.result])
                             for r in p.relations)


class Diagram:
    """One diagram over one bundle, with the reference facts its count
    and poly outputs are checked against, computed when first needed.
    A code (comps) is also checked on a relabeled and a kinked copy."""

    def __init__(self, pkg, bundle_name, comps=None, relations=None, rng=None):
        self.pkg, self.bundle_name = pkg, bundle_name
        self.bundle = pkg.algebra.builtin_bundle(bundle_name)
        self.comps, self.rng = comps, rng
        self.relations = relations or oracle.relations(comps)
        self._naive = self._sizes = None

    def library_poly(self, comps) -> dict:
        d, present = self.pkg.diagram, self.pkg.present
        code = d.parse_code(oracle.code_text(comps))
        return present.enhanced_invariant(d.extract_relations(code), self.bundle).as_dict()

    def naive(self):
        """(count, sorted image sizes) by product enumeration, or None."""
        if self._naive is None:
            ops, v, n = zero_based(self.bundle)
            nlabels, rels = self.relations
            if n ** nlabels <= NAIVE_MAX:
                tables = list(ops.values())
                sizes = sorted(len(oracle.closure(tables, v, set(f)))
                               for f in oracle.naive_colorings(nlabels, rels, ops, v, n))
                self._naive = (len(sizes), sizes)
        return self._naive

    def subalgebra_sizes(self) -> set:
        if self._sizes is None:
            ops, v, n = zero_based(self.bundle)
            self._sizes = oracle.subalgebra_sizes(list(ops.values()), v, n)
        return self._sizes

    def check_count(self, count) -> None:
        naive = self.naive()
        if naive is not None:
            expect(count == naive[0], f"count {count}, product enumeration {naive[0]}")

    def check_poly(self, got: dict) -> None:
        poly = oracle.parse_polynomial(got["polynomial"])
        sizes = got["image_sizes"]
        expect(sum(poly.values()) == got["count"] == len(sizes),
               f"coefficients {poly} do not sum to count {got['count']}")
        expect(poly == {s: sizes.count(s) for s in set(sizes)},
               "polynomial disagrees with image_sizes")
        expect(set(poly) <= self.subalgebra_sizes(),
               f"exponents {sorted(poly)} not subalgebra sizes {sorted(self.subalgebra_sizes())}")
        naive = self.naive()
        if naive is not None:
            expect(sizes == naive[1], f"image sizes {sizes}, product enumeration {naive[1]}")
        if self.comps is not None:
            for label, variant in (("relabeled", oracle.relabel_code(self.comps, self.rng)),
                                   ("R1 kink", oracle.with_kink(self.comps, self.rng))):
                other = self.library_poly(variant)
                expect(other == got, f"{label} copy gives {other}, original {got}")


def _invariant_ops(pkg, dia: Diagram, source: list, tag: str,
                   table_arg: str, paper: Optional[tuple]) -> list:
    count_name, poly_name = f"count {tag} / {dia.bundle_name}", f"poly {tag} / {dia.bundle_name}"

    def check_count(res, results):
        got = ok_json(res)["count"]
        dia.check_count(got)
        if paper and paper[0] == "count":
            expect(got == paper[1], f"count {got}, paper value {paper[1]}")

    def check_poly(res, results):
        got = ok_json(res)
        dia.check_poly(got)
        count = ok_json(results[count_name])["count"]
        expect(got["count"] == count, f"poly count {got['count']}, count verb {count}")
        if paper and paper[0] == "poly":
            expect(got["polynomial"] == paper[1],
                   f"polynomial {got['polynomial']}, paper value {paper[1]}")

    return [
        Op(count_name, lambda: call_cli(pkg, ["count", "--table", table_arg] + source),
           check_count),
        Op(poly_name, lambda: call_cli(pkg, ["poly", "--table", dia.bundle_name] + source),
           check_poly),
    ]


def _vassiliev_op(pkg, name, k1, k2, inputs, expected=None) -> Op:
    f1 = write(inputs, f"{name}-k1.code", oracle.code_text(k1))
    f2 = write(inputs, f"{name}-k2.code", oracle.code_text(k2))
    argv = ["vassiliev", "--k1", f1, "--k2", f2, "--probes", *PROBES]

    def check(res, results):
        got = ok_json(res)
        expect(got["conclusion"] == ("inequivalent" if got["witnesses"] else "inconclusive"),
               "conclusion disagrees with the witnesses")
        if expected:
            expect(got["conclusion"] == expected, f"{got['conclusion']}, expected {expected}")
        d, v = pkg.diagram, pkg.vassiliev
        probes = [pkg.algebra.builtin_bundle(p) for p in PROBES]
        codes = [d.parse_code(oracle.code_text(k)) for k in (k1, k2)]
        expect(v.distinguish(codes[0], codes[0], probes)["conclusion"] == "inconclusive",
               "a code compared with itself is not inconclusive")
        neg = v.distinguish(*(d.parse_code(oracle.code_text(oracle.negated(k)))
                              for k in (k1, k2)), probes)
        flipped = [dict(w, coefficient_k1=-w["coefficient_k1"],
                        coefficient_k2=-w["coefficient_k2"]) for w in got["witnesses"]]
        expect(neg["witnesses"] == flipped,
               "negating every sign does not negate every witness coefficient")

    return Op(f"vassiliev {name}", lambda: call_cli(pkg, argv), check)


def build_invariants(pkg, seed: int, inputs) -> list:
    rng = random.Random(seed)
    d, present = pkg.diagram, pkg.present
    ops = []
    t4_file = write(inputs, "t4.table", pkg.algebra.format_table_text(
        pkg.algebra.builtin_bundle("t4")))
    pkg.algebra.parse_table_text(open(t4_file).read())

    def colorable(kinds):
        return [b for b in BUNDLES if ("S" not in kinds or b in SINGULAR)
                and ("V" not in kinds or b == "ts3_v13")]

    # builtin presentations by name, and builtin codes as files
    for name in present.BUILTIN_PRESENTATIONS:
        kinds = {"F" if r.kind in ("up", "dn") else "S" if r.kind[0] == "h" else "V"
                 for r in present.builtin(name).relations}
        for b in colorable(kinds):
            dia = Diagram(pkg, b, relations=_presentation_relations(present.builtin(name)))
            ops += _invariant_ops(pkg, dia, ["--builtin", name], f"builtin {name}", b,
                                  _paper_value(name, dia))
    for name in d.BUILTIN_CODES:
        text = d.builtin_code(name).text()
        comps = oracle.parse_code_text(text)
        path = write(inputs, f"{name}.code", text)
        d.parse_code(open(path).read())
        kinds = {p[0] for c in comps for p in c}
        for b in colorable(kinds):
            dia = Diagram(pkg, b, comps, rng=rng)
            ops += _invariant_ops(pkg, dia, ["--code", path], f"code {name}", b,
                                  _paper_value(name, dia))

    def add_code(tag, comps, bundles, with_presentation):
        text = oracle.code_text(comps)
        path = write(inputs, f"{tag}.code", text)
        d.parse_code(open(path).read())
        out = []
        for b in bundles:
            dia = Diagram(pkg, b, comps, rng=rng)
            out += _invariant_ops(pkg, dia, ["--code", path], tag, t4_file if b == "t4" else b,
                                  None)
        if with_presentation:
            ppath = write(inputs, f"{tag}.pres", _presentation_text(comps))
            present.parse_presentation(open(ppath).read())
            dia = Diagram(pkg, bundles[0], comps, rng=rng)

            def check(res, results, dia=dia, twin=f"count {tag} / {bundles[0]}"):
                got = ok_json(res)["count"]
                expect(got == ok_json(results[twin])["count"],
                       "the presentation and the code disagree")
                dia.check_count(got)
            out.append(Op(f"count {tag}.pres / {bundles[0]}",
                          lambda: call_cli(pkg, ["count", "--table", bundles[0],
                                                          "--presentation", ppath]),
                          check))
        return out

    # the ladder: fixed seeds, so its cost is the same in every run
    for family, kinds, sizes, per_size, bundles in LADDER:
        for c in sizes:
            for i in range(per_size):
                lrng = random.Random(f"ladder-{family}-{c}-{i}")
                comps = oracle.random_code(lrng, _counts(kinds, c), 1 + (c + i) % 3)
                ops += add_code(f"ladder-{family}-{c}x-{i}", comps, bundles, False)
    # the sample: small codes drawn from the run's seed
    for family, kinds, (lo, hi), count, bundles in SAMPLE:
        for i in range(count):
            c = rng.randint(lo, hi)
            comps = oracle.random_code(rng, _counts(kinds, c), rng.randint(1, 3))
            ops += add_code(f"sample-{family}-{c}x-{i}", comps, bundles, True)

    ops.append(_vassiliev_op(pkg, "double-twist",
                             *(oracle.parse_code_text(t) for t in DOUBLE_TWIST), inputs,
                             expected="inequivalent"))
    for c in VASSILIEV_LADDER:
        lrng = random.Random(f"ladder-classical-{c}")
        ops.append(_vassiliev_op(pkg, f"ladder-classical-{c}x",
                                 oracle.classical_code(lrng, c),
                                 oracle.classical_code(lrng, c), inputs))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# enumeration

ENUM_FLAGS = ([], ["--iso"], ["--json"], ["--iso", "--json"])
FAULTS = {
    # operations that fail every time: what the program does today
    "enumerate --n 0": "raises ValueError from enumerate_semiquandles",
    "verify non-integer entry": "raises ValueError from parse_table_text",
    "verify order 0": "prints 'valid semiquandle of order 0' and exits 0",
    "apply_move delete at the end of a component":
        "inverse_of gives an insert past the end; apply_move raises MoveError",
}


def _check_enumerate(n, flags, tables):
    def check(res, results):
        if "--jobs" in flags:
            twin = " ".join(["enumerate", "--n", str(n)] + flags[:flags.index("--jobs")])
            expect(res == results[twin], f"--jobs changes the output of {twin}")
        want = set(tables)
        if "--json" in flags:
            got = ok_json(res)
            expect(got["count"] == len(got["tables"]), "count disagrees with the list")
            found = [(tuple(tuple(e - 1 for e in r) for r in t["up"]),
                      tuple(tuple(e - 1 for e in r) for r in t["dn"])) for t in got["tables"]]
        else:
            text = ok_stdout(res)
            found = oracle.parse_tables_stream(text)
            expect(text.endswith(f"count: {len(found)}\n"), "count line disagrees")
        expect(set(found) <= want, "a listed table is not a semiquandle")
        if "--iso" in flags:
            classes = {oracle.iso_key(up, dn) for up, dn in tables}
            keys = [oracle.iso_key(up, dn) for up, dn in found]
            expect(len(set(keys)) == len(keys) == len(classes),
                   f"{len(found)} tables for {len(classes)} isomorphism classes")
        else:
            expect(sorted(found) == sorted(want),
                   f"{len(found)} tables, brute force finds {len(want)}")
    return check


def _check_verify(words, n, valid):
    def check(res, results):
        out = ok_stdout(res)
        expect(valid(), "the oracle finds an axiom violation")
        try:
            got = json.loads(out)
            expect(got == {"valid": True, "n": n, "structure": words}, f"reported {got}")
        except json.JSONDecodeError:
            expect(out == f"valid {' '.join(words)} of order {n}\n", f"reported {out!r}")
    return check


def _conjugacy_representatives(group) -> set:
    def inverse(g):
        return tuple(sorted(range(len(g)), key=lambda i: g[i]))
    return {min(tuple(g[a[gi[x]]] for x in range(len(a)))
                for g, gi in ((g, inverse(g)) for g in group))
            for a in group}


def _check_auto(tables, v):
    def check(res, results):
        autos = oracle.automorphisms(tables, v)
        want_autos = sorted(tuple(e + 1 for e in a) for a in autos)
        want_reps = sorted(tuple(e + 1 for e in r) for r in _conjugacy_representatives(autos))
        out = ok_stdout(res)
        if out.startswith("{"):
            got = json.loads(out)
            got_autos = [tuple(a) for a in got["automorphisms"]]
            got_reps = [tuple(r) for r in got["conjugacy_class_representatives"]]
        else:
            head, _, tail = out.partition("conjugacy class representatives:\n")
            got_autos = [tuple(map(int, ln.split())) for ln in head.splitlines()[1:]]
            got_reps = [tuple(map(int, ln.split())) for ln in tail.splitlines()]
        expect(sorted(got_autos) == want_autos,
               f"{len(got_autos)} automorphisms, the oracle finds {len(want_autos)}")
        expect(sorted(got_reps) == want_reps, "conjugacy class representatives differ")
    return check


def _check_extensions(up, dn):
    def check(res, results):
        not_raised(res)
        got = [(tuple(tuple(e - 1 for e in r) for r in s.hup),
                tuple(tuple(e - 1 for e in r) for r in s.hdn)) for s in res]
        found = set(got)
        expect(len(found) == len(got), "an extension is listed twice")
        expect(all(oracle.is_singular(up, dn, h, k) for h, k in got),
               "a listed extension violates the hat axioms")
        autos = oracle.automorphisms((up, dn))
        expect(all((oracle.relabel_table(h, p), oracle.relabel_table(k, p)) in found
                   for p in autos for h, k in got),
               "the extensions are not closed under the table's automorphisms")
        want = oracle.all_singular_extensions(up, dn)
        expect(found == set(want), f"{len(found)} extensions, brute force finds {len(want)}")
    return check


def build_enumeration(pkg, seed: int, inputs) -> list:
    rng = random.Random(seed)
    algebra = pkg.algebra
    ops = []
    tables = {n: oracle.all_semiquandles(n) for n in (1, 2, 3)}
    # --jobs is a worker hint that must never change the output bytes
    runs = [(n, flags) for n in (1, 2, 3) for flags in ENUM_FLAGS]
    runs += [(n, flags + ["--jobs", "2"]) for n in (2, 3) for flags in ENUM_FLAGS]
    # order 3 has 6^3 candidates: a budget of exactly that many suffices
    runs += [(3, ["--budget", "216"]), (3, ["--iso", "--budget", "216"])]
    for n, flags in runs:
        argv = ["enumerate", "--n", str(n)] + flags
        ops.append(Op(" ".join(argv), lambda argv=argv: call_cli(pkg, argv),
                      _check_enumerate(n, flags, tables[n])))

    def budget_exceeded(res, results):
        # the tables found before the budget ran out are already on stdout
        not_raised(res)
        lines = res[3].strip().splitlines()
        expect(res[1] == 3 and len(lines) == 1, f"exit {res[1]}: {lines}")
    ops.append(Op("enumerate --n 3 --budget 100",
                  lambda: call_cli(pkg, ["enumerate", "--n", "3", "--budget", "100"]),
                  budget_exceeded))
    for n in (1, 2, 3):
        for k, (up, dn) in enumerate(tables[n]):
            path = write(inputs, f"order{n}-{k}.table", oracle.table_text(up, dn))
            algebra.parse_table_text(open(path).read())
            json_flag = ["--json"] if k % 2 else []
            ops.append(Op(f"verify order{n}-{k}",
                          lambda a=["verify", "--table", path] + json_flag: call_cli(pkg, a),
                          _check_verify(["semiquandle"], n,
                                        lambda t=(up, dn): oracle.is_semiquandle(*t))))
            ops.append(Op(f"auto order{n}-{k}",
                          lambda a=["auto", "--table", path] + json_flag: call_cli(pkg, a),
                          _check_auto((up, dn), None)))
    for k, name in enumerate(algebra.BUILTIN_BUNDLES):
        b = algebra.builtin_bundle(name)
        ops_, v, n = zero_based(b)
        words = ["semiquandle"] + (["singular"] if "hup" in ops_ else []) + \
            (["virtual"] if v is not None else [])

        def valid(ops_=ops_, v=v):
            return (oracle.is_semiquandle(ops_["up"], ops_["dn"])
                    and ("hup" not in ops_ or oracle.is_singular(*ops_.values()))
                    and (v is None or oracle.is_automorphism(v, list(ops_.values()))))
        json_flag = ["--json"] if k % 2 else []
        other = [] if json_flag else ["--json"]
        ops.append(Op(f"verify {name}",
                      lambda a=["verify", "--builtin", name] + json_flag: call_cli(pkg, a),
                      _check_verify(words, n, valid)))
        ops.append(Op(f"auto {name}",
                      lambda a=["auto", "--table", name] + other: call_cli(pkg, a),
                      _check_auto(list(ops_.values()), v)))
    classes = {}
    for up, dn in tables[3]:
        classes.setdefault(oracle.iso_key(up, dn), (up, dn))
    for k, (up, dn) in enumerate(sorted(classes.values())):
        table = algebra.SemiquandleTable(*(tuple(tuple(e + 1 for e in r) for r in t)
                                           for t in (up, dn)))
        ops.append(Op(f"singular extensions of class {k}",
                      lambda t=table: list(pkg.enumeration.enumerate_singular_extensions(t)),
                      _check_extensions(up, dn)))
    # the three faults: each fails every time until the program is mended
    bad = write(inputs, "non-integer.table", "semiquandle 2\n1 x\n2 1\n\n1 1\n2 2\n")
    empty = write(inputs, "order0.table", "semiquandle 0\n")
    for name, argv in (("enumerate --n 0", ["enumerate", "--n", "0"]),
                       ("verify non-integer entry", ["verify", "--table", bad]),
                       ("verify order 0", ["verify", "--table", empty])):
        ops.append(Op(name, lambda a=argv: call_cli(pkg, a), documented_error))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# moves

TRIAL_RUNS, TRIALS = 12, 18
ROUND_TRIPS = 3             # insert-and-undo operations per code
# a flat kink at the end of its component
END_KINK = "comp: F1.sup F2.sup F1.sub F2.sub F3.sup F3.sub\n"
# (components, passes per component); two codes of each shape
SHAPES = ((1, 8), (1, 12), (2, 4), (2, 6), (3, 4), (4, 3), (4, 4))
# insert moves the round trips start from: (move, variant, strands)
INSERTS = (("fR1", "sup_first", 1), ("fR1", "sub_first", 1), ("vR1", "vp_first", 1),
           ("fR2", "direct", 2), ("fR2", "reverse", 2), ("vR2", "mirror", 2),
           ("vR2", "reverse_mirror", 2))


def _renumbered(code) -> str:
    """Code text with each kind's crossings numbered by first appearance."""
    comps = oracle.parse_code_text(code.text())
    ids = {}
    for c in comps:
        for k, cid, _, _ in c:
            ids.setdefault((k, cid), sum(1 for kk, _ in ids if kk == k) + 1)
    return oracle.code_text([[(k, ids[(k, cid)], r, s) for k, cid, r, s in c] for c in comps])


def _round_trip_op(d, mv, invariant, rng, comps, text, tag, move, variant, strands) -> Op:
    """Insert a move at seeded sites, then undo it with inverse_of."""
    sites = sorted(rng.sample([(ci, j) for ci, c in enumerate(comps)
                               for j in range(len(c))], strands))
    spec = mv.MoveSpec(move, "insert", tuple(sites), variant)

    def round_trip():
        code = d.parse_code(text)
        moved = mv.apply_move(code, spec)
        restored = mv.apply_move(moved, mv.inverse_of(moved, spec))
        return moved.text(), restored.text()

    def check(res, results):
        not_raised(res)
        moved, restored = res
        expect(restored == text, "the inverse does not restore the code")
        expect(invariant(d.parse_code(moved)) == invariant(d.parse_code(text)),
               "the move changes the invariant")

    return Op(f"apply_move {move}/{variant} {tag}", round_trip, check)


def build_moves(pkg, seed: int, inputs) -> list:
    rng = random.Random(seed)
    d, mv = pkg.diagram, pkg.moves
    algebra = pkg.algebra
    probe = algebra.builtin_bundle("ca3_op").with_trivial_extensions()
    ops = []

    def invariant(code):
        return pkg.present.enhanced_invariant(d.extract_relations(code), probe)

    # fixed trial seeds: run_move_trials crashes on a few seeds (see FAULTS),
    # and an operation that fails on some seeds only cannot be counted
    for s in range(TRIAL_RUNS):
        argv = ["moves-test", "--json", "--trials", str(TRIALS), "--seed", str(s)]

        def check(res, results):
            got = ok_json(res)
            expect(not got["failures"], f"{len(got['failures'])} failed trials")
            expect(sum(got["per_move"].values()) == got["trials"] == TRIALS,
                   f"per-move counts {got['per_move']} do not sum to {TRIALS}")
        ops.append(Op(f"moves-test seed {s}", lambda a=argv: call_cli(pkg, a), check))

    def delete_round_trip(text=END_KINK):
        code = d.parse_code(text)
        spec = mv.MoveSpec("fR1", "delete", ((0, 4),), "sup_first")
        moved = mv.apply_move(code, spec)
        return _renumbered(mv.apply_move(moved, mv.inverse_of(moved, spec)))

    def check_delete(res, results):
        not_raised(res)
        expect(res == _renumbered(d.parse_code(END_KINK)), "the inverse does not restore the code")
    ops.append(Op("apply_move delete at the end of a component", delete_round_trip, check_delete))

    for ncomp, length in SHAPES:
        for i in range(2):
            comps = oracle.equal_components_code(rng, ncomp, length)
            text = oracle.code_text(comps)
            tag = f"{ncomp}x{length}-{i}"
            d.parse_code(text)

            def check_moves(res, results, text=text, comps=comps):
                not_raised(res)
                expect(res == sorted(set(res)), "the list is not sorted and distinct")
                positions = sum(max(len(c), 1) for c in comps)
                inserts = [m for m in res if m.direction == "insert"]
                expect(len(inserts) == 4 * positions + 8 * positions * (positions - 1),
                       f"{len(inserts)} inserts for {positions} semiarcs")
                # deletes are applied; rewrites, which are involutions, are
                # also undone (inverse_of on deletes has its own operation)
                code = d.parse_code(text)
                for m in res:
                    if m.direction == "insert":
                        continue
                    moved = mv.apply_move(code, m)
                    expect(len(moved.passes()) == len(code.passes())
                           - (2 * len(m.site) if m.direction == "delete" else 0),
                           f"{m} leaves {len(moved.passes())} passes")
                    if m.direction == "apply":
                        back = mv.apply_move(moved, mv.inverse_of(moved, m))
                        expect(back == code, f"{m} is not undone by its inverse")
                    expect(invariant(moved) == invariant(code), f"{m} changes the invariant")

            ops.append(Op(f"applicable_moves {tag}",
                          lambda text=text: mv.applicable_moves(d.parse_code(text)),
                          check_moves))

            for move, variant, strands in rng.sample(INSERTS, ROUND_TRIPS):
                ops.append(_round_trip_op(d, mv, invariant, rng, comps, text, tag,
                                          move, variant, strands))

            def check_canonical(res, results, comps=comps):
                not_raised(res)
                twin = mv.canonical(d.parse_code(oracle.code_text(
                    oracle.relabel_code(comps, rng))))
                expect(twin == res, "a relabeled copy has another canonical form")
                expect(mv.canonical(res) == res, "canonical is not idempotent")

            ops.append(Op(f"canonical {tag}",
                          lambda text=text: mv.canonical(d.parse_code(text)),
                          check_canonical))
    rng.shuffle(ops)
    return ops


BUILD = {
    "invariants": build_invariants,
    "enumeration": build_enumeration,
    "moves": build_moves,
}

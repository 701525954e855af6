"""Command-line interface.

Verbs: verify, enumerate, count, poly, auto, moves-test, vassiliev, each
with only the options its handler reads (enumerate also takes --jobs,
read by nothing, for the benchmark).  Results go to stdout, diagnostics
to stderr.  Exit codes: 0 success / valid, 1 invalid input, property
failure or a closed stdout pipe, 2 usage error, 3 resource budget
exceeded.  All output is byte-deterministic for fixed inputs, flags, and
seeds.  The argument parser is built once per process, at the first
call of `main`, and every later call reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import algebra, diagram, enumeration, moves, present
from .algebra import (AxiomError, ResourceBudgetExceeded, StructureError,
                      StructureBundle, builtin_bundle, format_table_text,
                      parse_table_text, automorphisms, BUILTIN_BUNDLES)
from .diagram import CodeError, parse_code, extract_relations
from .enumeration import _conjugacy_classes, enumerate_semiquandles
from .present import (PresentationError, MissingExtensionError,
                      parse_presentation, count_colorings, enhanced_invariant,
                      builtin as builtin_presentation)
from .vassiliev import distinguish

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# bundles the randomized move suite probes, in reporting order
TRIAL_BUNDLES = ("t4", "ca3_op", "ts3_v13", "t4_sing")


class UsageError(Exception):
    pass


class InvalidInput(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise InvalidInput(f"{path}: not text ({e.reason})") from None


def _load_bundle(spec: str) -> StructureBundle:
    """A bundle from a table file path, or a builtin bundle name."""
    if spec in BUILTIN_BUNDLES:
        return builtin_bundle(spec)
    try:
        return parse_table_text(_read(spec))
    except (StructureError, AxiomError) as e:
        raise InvalidInput(f"{spec}: {e}") from None


def _load_presentation(args) -> "present.Presentation":
    """Presentation from --presentation, --code, or --builtin."""
    sources = [s for s in (args.presentation, args.code, args.builtin) if s]
    if len(sources) != 1:
        raise UsageError("give exactly one of --presentation, --code, --builtin")
    try:
        if args.presentation:
            return parse_presentation(_read(args.presentation))
        if args.code:
            return extract_relations(parse_code(_read(args.code)))
        return builtin_presentation(args.builtin)
    except (PresentationError, CodeError) as e:
        raise InvalidInput(str(e)) from None
    except KeyError as e:
        raise UsageError(f"unknown builtin {args.builtin!r}") from None


def _budget(args) -> dict:
    """The --budget value as a node_budget keyword, or none for the default."""
    if args.budget is None:
        return {}
    if args.budget < 0:
        raise InvalidInput(f"--budget must be at least 0, got {args.budget}")
    return {"node_budget": args.budget}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# verbs

def _cmd_verify(args) -> int:
    if bool(args.table) == bool(args.builtin):
        raise UsageError("give exactly one of --table, --builtin")
    if args.builtin and args.builtin not in BUILTIN_BUNDLES:
        raise UsageError(f"unknown builtin bundle {args.builtin!r}")
    spec = args.table or args.builtin
    try:
        bundle = _load_bundle(spec)
    except InvalidInput as e:
        cause = e.args[0]
        if args.json:
            _emit({"valid": False, "error": cause})
        else:
            sys.stdout.write(f"invalid: {cause}\n")
        return EXIT_INVALID
    parts = ["semiquandle"]
    if bundle.has_singular:
        parts.append("singular")
    if bundle.has_virtual:
        parts.append("virtual")
    if args.json:
        _emit({"valid": True, "n": bundle.n, "structure": parts})
    else:
        sys.stdout.write(f"valid {' '.join(parts)} of order {bundle.n}\n")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.n is None:
        raise UsageError("enumerate requires --n")
    if not 1 <= args.n <= enumeration.MAX_ORDER:
        raise InvalidInput(f"--n must be from 1 to {enumeration.MAX_ORDER}, "
                           f"got {args.n}")
    found = []
    stream = enumerate_semiquandles(args.n, up_to_iso=args.iso, **_budget(args))
    if args.json:
        for t in stream:
            found.append({"up": [list(r) for r in t.up],
                          "dn": [list(r) for r in t.dn]})
        _emit({"n": args.n, "up_to_iso": args.iso,
               "count": len(found), "tables": found})
        return EXIT_OK
    count = 0
    for t in stream:
        sys.stdout.write(format_table_text(StructureBundle(t)))
        sys.stdout.write("%\n")
        count += 1
    sys.stdout.write(f"count: {count}\n")
    return EXIT_OK


def _cmd_invariant(args, full: bool) -> int:
    if not args.table:
        raise UsageError("requires --table (file or builtin bundle name)")
    bundle = _load_bundle(args.table)
    pres = _load_presentation(args)
    budget = _budget(args)
    try:
        if full:
            _emit(enhanced_invariant(pres, bundle, **budget).as_dict())
        else:
            _emit({"count": count_colorings(pres, bundle, **budget)})
    except MissingExtensionError as e:
        raise InvalidInput(str(e)) from None
    return EXIT_OK


def _cmd_auto(args) -> int:
    if not args.table:
        raise UsageError("auto requires --table (file or builtin bundle name)")
    bundle = _load_bundle(args.table)
    budget = _budget(args)
    autos = automorphisms(bundle, **budget)
    classes = _conjugacy_classes(autos)
    report = {"n": bundle.n,
              "automorphisms": [list(a) for a in autos],
              "conjugacy_class_representatives": [list(c) for c in classes]}
    if args.json:
        _emit(report)
    else:
        sys.stdout.write("automorphisms:\n")
        for a in autos:
            sys.stdout.write("  " + " ".join(str(x) for x in a) + "\n")
        sys.stdout.write("conjugacy class representatives:\n")
        for c in classes:
            sys.stdout.write("  " + " ".join(str(x) for x in c) + "\n")
    return EXIT_OK


def _cmd_moves_test(args) -> int:
    if args.trials < 0:
        raise InvalidInput(f"--trials must be at least 0, got {args.trials}")
    bundles = [(name, builtin_bundle(name)) for name in TRIAL_BUNDLES]
    report = moves.run_move_trials(bundles, trials=args.trials, seed=args.seed)
    ok = not report["failures"]
    if args.json:
        _emit(report)
    else:
        sys.stdout.write(f"trials: {report['trials']}\nseed: {report['seed']}\n")
        for move in sorted(report["per_move"]):
            sys.stdout.write(f"  {move}: {report['per_move'][move]}\n")
        sys.stdout.write(f"failures: {len(report['failures'])}\n")
        for f in report["failures"]:
            sys.stdout.write(f"  {f}\n")
    return EXIT_OK if ok else EXIT_INVALID


def _cmd_vassiliev(args) -> int:
    if not (args.k1 and args.k2):
        raise UsageError("vassiliev requires --k1 and --k2")
    try:
        k1 = parse_code(_read(args.k1))
        k2 = parse_code(_read(args.k2))
    except CodeError as e:
        raise InvalidInput(str(e)) from None
    probes = [_load_bundle(p) for p in (args.probes or [])]
    budget = _budget(args)
    try:
        report = distinguish(k1, k2, probes, **budget)
    except (CodeError, MissingExtensionError) as e:
        raise InvalidInput(str(e)) from None
    _emit(report)
    return EXIT_OK


# ---------------------------------------------------------------------------

# every option once; each verb registers only the ones its handler reads
_OPTIONS = {
    "--table": dict(help="table file, or builtin bundle name"),
    "--presentation": dict(help="presentation file"),
    "--code": dict(help="pass code file"),
    "--builtin": dict(help="builtin presentation or code name (verify: builtin bundle name)"),
    "--n": dict(type=int, help="order to enumerate"),
    "--iso": dict(action="store_true", help="one representative per isomorphism class"),
    "--budget": dict(type=int, help="search-node budget (exit 3 when exceeded)"),
    "--trials": dict(type=int, default=500),
    "--seed": dict(type=int, default=0),
    "--jobs": dict(type=int, default=1, help="accepted and never read"),
    "--json": dict(action="store_true"),
    "--k1": dict(help="first pass code file"),
    "--k2": dict(help="second pass code file"),
    "--probes": dict(nargs="*", help="probe table files or builtin bundle names"),
}
_INVARIANT = "--table --presentation --code --builtin --budget"

# verb: (handler, its options, help); no handler reads --jobs
_VERBS = {
    "verify": (_cmd_verify, "--table --builtin --json", "check table axioms"),
    "enumerate": (_cmd_enumerate, "--n --iso --budget --jobs --json",
                  "stream all semiquandles of an order"),
    "count": (lambda a: _cmd_invariant(a, full=False), _INVARIANT,
              "counting invariant of a presentation over a bundle"),
    "poly": (lambda a: _cmd_invariant(a, full=True), _INVARIANT,
             "enhanced polynomial invariant"),
    "auto": (_cmd_auto, "--table --budget --json",
             "automorphisms and conjugacy classes of a bundle"),
    "moves-test": (_cmd_moves_test, "--trials --seed --json",
                   "randomized move-invariance suite"),
    "vassiliev": (_cmd_vassiliev, "--k1 --k2 --probes --budget",
                  "compare resolution sums of two classical codes"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="semiquandles",
        description="Finite semiquandles: verification, enumeration, "
                    "coloring invariants, move testing, resolution sums.")
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, (_, options, help_) in _VERBS.items():
        p = sub.add_parser(verb, help=help_)
        for flag in options.split():
            p.add_argument(flag, **_OPTIONS[flag])
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            return _VERBS[args.verb][0](args)
        finally:
            sys.stdout.flush()    # so a closed pipe raises here at the latest
    except UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE
    except InvalidInput as e:
        sys.stderr.write(f"invalid input: {e}\n")
        return EXIT_INVALID
    except ResourceBudgetExceeded as e:
        sys.stderr.write(f"budget exceeded: {e}\n")
        return EXIT_BUDGET
    except BrokenPipeError:
        # stdout's reader is gone: flush at exit to devnull (Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

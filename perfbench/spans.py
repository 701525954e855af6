"""Spans around the package's public functions, and the per-layer metrics
derived from them.

`Tracer.install` replaces every public module-level function of the
package (and `Fingerprint.of`) with a wrapper that records a span
[name, start, end, parent] on each call, in every module namespace that
holds a reference to it, so calls through `cli` and between modules are
seen too.  A generator function records one span per resumption and
counts what it yields.  `algebra.evaluate` runs millions of times in the
solver, so it is only counted.  Spans stay in memory; `layer_metrics`
reduces one pass's spans to the per-layer metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

MODULES = ("algebra", "diagram", "present", "moves", "enumeration",
           "vassiliev", "cli")
COUNT_ONLY = {"algebra.evaluate"}

# groups of functions reported as one layer metric
GROUPS = {
    "diagram.resolve": ("diagram.flatten", "diagram.smooth_at",
                        "diagram.glue_at", "diagram.glue_kink"),
    "algebra.check": ("algebra.check_semiquandle", "algebra.check_singular",
                      "algebra.check_virtual"),
}

# (metric name, unit, better); the order BENCHMARK.json lists them in
PER_LAYER = (
    ("cli.main.self_ms", "ms", "lower"),
    ("diagram.parse_code.ms", "ms", "lower"),
    ("diagram.parse_code.calls", "count", "lower"),
    ("diagram.extract_relations.ms", "ms", "lower"),
    ("diagram.extract_relations.calls", "count", "lower"),
    ("diagram.resolve.ms", "ms", "lower"),
    ("present.colorings.ms", "ms", "lower"),
    ("present.colorings.calls", "count", "lower"),
    ("present.colorings.solutions", "count", "higher"),
    ("present.solutions_per_s", "1/s", "higher"),
    ("present.enhanced_invariant.self_ms", "ms", "lower"),
    ("present.parse_presentation.ms", "ms", "lower"),
    ("algebra.subclosure.ms", "ms", "lower"),
    ("algebra.subclosure.calls", "count", "lower"),
    ("algebra.evaluate.calls", "count", "lower"),
    ("algebra.check.ms", "ms", "lower"),
    ("algebra.check.calls", "count", "lower"),
    ("algebra.automorphisms.ms", "ms", "lower"),
    ("algebra.parse_table_text.ms", "ms", "lower"),
    ("enumeration.enumerate_semiquandles.ms", "ms", "lower"),
    ("enumeration.enumerate_semiquandles.yielded", "count", "higher"),
    ("enumeration.enumerate_singular_extensions.ms", "ms", "lower"),
    ("enumeration.enumerate_singular_extensions.yielded", "count", "higher"),
    ("enumeration.enumerate_virtual_structures.ms", "ms", "lower"),
    ("enumeration.tables_per_s", "1/s", "higher"),
    ("moves.applicable_moves.ms", "ms", "lower"),
    ("moves.applicable_moves.calls", "count", "lower"),
    ("moves.applicable_moves.found", "count", "higher"),
    ("moves.apply_move.ms", "ms", "lower"),
    ("moves.inverse_of.ms", "ms", "lower"),
    ("moves.run_move_trials.self_ms", "ms", "lower"),
    ("moves.canonical.ms", "ms", "lower"),
    ("moves.canonical.calls", "count", "lower"),
    ("vassiliev.distinguish.self_ms", "ms", "lower"),
    ("vassiliev.fingerprint.calls", "count", "lower"),
    ("vassiliev.fingerprint.distinct_share", "share", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.fingerprinted = set()

    def reset(self):
        self.spans, self.stack = [], []
        self.counts = Counter()
        self.fingerprinted = set()

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span of its own (an operation root)."""
        return self._wrap(name, fn)(*args)

    def _wrap(self, name, fn):
        clock = time.perf_counter
        hook = _RESULT_HOOKS.get(name)

        if name in COUNT_ONLY:
            def counted(*args, **kw):
                self.counts[name + ".calls"] += 1
                return fn(*args, **kw)
            return functools.wraps(fn)(counted)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kw):
                self.counts[name + ".calls"] += 1
                it = fn(*args, **kw)
                while True:
                    spans, stack = self.spans, self.stack
                    i = len(spans)
                    spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
                    stack.append(i)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans[i][2] = clock()
                    self.counts[name + ".yielded"] += 1
                    yield item
            return functools.wraps(fn)(traced_gen)

        def traced(*args, **kw):
            spans, stack = self.spans, self.stack
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                result = fn(*args, **kw)
            finally:
                stack.pop()
                spans[i][2] = clock()
            if hook:
                hook(self, args, result)
            return result
        return functools.wraps(fn)(traced)

    def install(self, package) -> list:
        """Wrap the package's public functions; returns the undo list."""
        mods = [getattr(package, m) for m in MODULES]
        originals = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    originals[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        undo = []
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(mod, attr, originals[id(obj)][1])
                    undo.append((mod, attr, obj))
        fp = package.vassiliev.Fingerprint
        of = fp.__dict__["of"]
        fp.of = classmethod(self._wrap("vassiliev.fingerprint", of.__func__))
        undo.append((fp, "of", of))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for owner, attr, obj in undo:
            setattr(owner, attr, obj)


def _count_found(tracer, args, result):
    tracer.counts["moves.applicable_moves.found"] += len(result)


def _note_fingerprint(tracer, args, result):
    code, probes = args[1], args[2]
    tracer.fingerprinted.add((code.text(), tuple(probes)))


_RESULT_HOOKS = {
    "moves.applicable_moves": _count_found,
    "vassiliev.fingerprint": _note_fingerprint,
}


def _busy(spans, names) -> float:
    """Seconds inside the named spans, counting nested ones once."""
    names = set(names)
    return sum(s[2] - s[1] for s in spans
               if s[0] in names and (s[3] < 0 or spans[s[3]][0] not in names))


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, trace.overhead_s aside."""
    spans, counts = tracer.spans, tracer.counts
    calls = Counter(s[0] for s in spans)
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {}
    for metric, _, _ in PER_LAYER[:-1]:
        base, _, kind = metric.rpartition(".")
        names = GROUPS.get(base, (base,))
        if kind == "ms":
            out[metric] = 1000 * _busy(spans, names)
        elif kind == "self_ms":
            out[metric] = 1000 * sum(s[2] - s[1] - child[i]
                                     for i, s in enumerate(spans) if s[0] == base)
        elif kind == "calls":
            # generators and counted-only functions count their calls
            # themselves; the spans of a generator are its resumptions
            out[metric] = counts[metric] or sum(calls[n] for n in names)
        else:
            out[metric] = counts[metric]
    sols = out["present.colorings.solutions"] = counts["present.colorings.yielded"]
    out["present.solutions_per_s"] = rate(sols, out["present.colorings.ms"] / 1000)
    out["enumeration.tables_per_s"] = rate(
        counts["enumeration.enumerate_semiquandles.yielded"]
        + counts["enumeration.enumerate_singular_extensions.yielded"],
        _busy(spans, ("enumeration.enumerate_semiquandles",
                      "enumeration.enumerate_singular_extensions")))
    fp_calls = calls["vassiliev.fingerprint"]
    out["vassiliev.fingerprint.distinct_share"] = (
        len(tracer.fingerprinted) / fp_calls if fp_calls else 0.0)
    return out

"""Degree-one invariants of classical knot codes via crossing resolution.

Two formal sums are computed from a one-component classical code: the
smoothing sum S (each crossing smoothed, against a disjoint-unknot base
term) and the gluing sum G (each crossing made singular, against a
glued-kink base term).  Values live in the free abelian group on flat
link classes; classes are represented soundly-but-incompletely by
fingerprints of enhanced coloring invariants over a probe list of
structure bundles, and a sum is a {Fingerprint: nonzero coefficient}
dict, so a difference of sums certifies inequivalence while equality
stays inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import StructureBundle
from .diagram import (PassCode, CodeError, extract_relations, flatten,
                      smooth_at, glue_at, glue_kink, disjoint_unknot,
                      CLASSICAL)
from .present import NODE_BUDGET, MissingExtensionError, enhanced_invariant


@dataclass(frozen=True)
class Fingerprint:
    """Tuple of enhanced-invariant polynomials, one per probe bundle.

    Comparable only across the same probe list; inequality of the
    fingerprints of two codes certifies the codes are inequivalent.
    """

    polynomials: tuple

    @classmethod
    def of(cls, code: PassCode, probes,
           node_budget: int = NODE_BUDGET) -> "Fingerprint":
        pres = extract_relations(code)
        return cls(tuple(enhanced_invariant(pres, b, node_budget).polynomial
                         for b in probes))


def _classical_crossings(code: PassCode) -> list:
    """(cid, sign) for each classical crossing of a one-component code."""
    if len(code.components) != 1:
        raise CodeError("the resolution sums are defined for one-component codes")
    return [(cid, ps[0][2].sign) for (kind, cid), ps in code.where.items()
            if kind == CLASSICAL]


def _resolution_sum(code: PassCode, resolve, base: PassCode, probes,
                    node_budget: int) -> dict:
    """Over each classical crossing d, add sign(d)*(fingerprint of
    resolve(code, d) minus fingerprint of base), as {Fingerprint:
    coefficient} without zero coefficients."""
    crossings = _classical_crossings(code)
    acc: dict = {}
    for cid, sign in crossings:
        fp = Fingerprint.of(resolve(code, cid), probes, node_budget)
        acc[fp] = acc.get(fp, 0) + sign
    if crossings:
        fp = Fingerprint.of(base, probes, node_budget)
        acc[fp] = acc.get(fp, 0) - sum(sign for _, sign in crossings)
    return {fp: c for fp, c in acc.items() if c}


def s_sum(code: PassCode, probes, node_budget: int = NODE_BUDGET) -> dict:
    """Smoothing sum: over each classical crossing d, add
    sign(d)*(fingerprint of the smoothing at d minus fingerprint of the
    flattened code with a disjoint unknot)."""
    return _resolution_sum(code, smooth_at, disjoint_unknot(flatten(code)),
                           probes, node_budget)


def g_sum(code: PassCode, probes, node_budget: int = NODE_BUDGET) -> dict:
    """Gluing sum: over each classical crossing d, add
    sign(d)*(fingerprint of the code with d made singular minus
    fingerprint of the glued-kink base code).

    The glued codes carry hat relations, so every probe must have a
    singular extension.
    """
    lacking = [i for i, b in enumerate(probes) if not b.has_singular]
    if lacking:
        raise MissingExtensionError(
            f"gluing sum needs singular extensions; probes {lacking} lack one")
    return _resolution_sum(code, glue_at, glue_kink(code), probes, node_budget)


def _witnesses(label: str, da: dict, db: dict) -> list:
    out = []
    for fp in sorted(set(da) | set(db), key=lambda f: f.polynomials):
        ca, cb = da.get(fp, 0), db.get(fp, 0)
        if ca != cb:
            out.append({"invariant": label,
                        "term": list(fp.polynomials),
                        "coefficient_k1": ca,
                        "coefficient_k2": cb})
    return out


def distinguish(k1: PassCode, k2: PassCode, probes,
                node_budget: int = NODE_BUDGET) -> dict:
    """Compare the resolution sums of two codes over shared probes.

    A difference in either sum certifies the codes are inequivalent;
    agreement is inconclusive and is never reported as equivalence.
    node_budget bounds each coloring search.
    """
    s1, s2 = s_sum(k1, probes, node_budget), s_sum(k2, probes, node_budget)
    g1, g2 = g_sum(k1, probes, node_budget), g_sum(k2, probes, node_budget)
    witnesses = _witnesses("S", s1, s2) + _witnesses("G", g1, g2)
    s_differs = s1 != s2
    g_differs = g1 != g2
    return {
        "s_differs": s_differs,
        "g_differs": g_differs,
        "conclusion": "inequivalent" if (s_differs or g_differs) else "inconclusive",
        "witnesses": witnesses,
    }

"""Degree-one resolution sums: algebra of formal sums, trivial cases,
and a frozen distinguishing pair."""

import pytest

from semiquandles.algebra import builtin_bundle
from semiquandles.diagram import CodeError, parse_code
from semiquandles.present import MissingExtensionError
from semiquandles.vassiliev import (Fingerprint, FormalSum, s_sum, g_sum,
                                    distinguish)

T4_SING = builtin_bundle("t4_sing")
T4 = builtin_bundle("t4")
PROBES = (T4_SING,)

# positive and negative double-twist codes: same flat shadow, opposite
# second-crossing signs
K1 = parse_code("comp: C1.over+ C2.over+ C1.under+ C2.under+\n")
K2 = parse_code("comp: C1.over+ C2.over- C1.under+ C2.under-\n")


# ---------------------------------------------------------------------------
# formal sums

def test_formal_sum_algebra():
    a = Fingerprint(("z",))
    b = Fingerprint(("2z",))
    s = FormalSum.from_dict({a: 1, b: -1})
    assert (s - s).is_zero()
    assert (s + (-s)).is_zero()
    assert (s + s).as_dict() == {a: 2, b: -2}
    assert FormalSum.from_dict({a: 0}).is_zero()


def test_fingerprint_matches_enhanced_invariant():
    fp = Fingerprint.of(parse_code("comp:\n"), (T4, T4_SING))
    # 4 colorings over the order-4 table: two with closure size 1,
    # two with closure size 4
    assert fp.polynomials == ("2z + 2z^4", "2z + 2z^4")


# ---------------------------------------------------------------------------
# trivial cases

def test_unknot_has_empty_sums():
    u = parse_code("comp:\n")
    assert s_sum(u, PROBES).is_zero()
    assert g_sum(u, PROBES).is_zero()


def test_kink_sums_cancel():
    # a single kink smooths/glues to exactly the base term
    kink = parse_code("comp: C1.over+ C1.under+\n")
    assert s_sum(kink, PROBES).is_zero()
    assert g_sum(kink, PROBES).is_zero()


def test_mirror_negates_the_sums():
    mirror = parse_code("comp: C1.over- C2.over- C1.under- C2.under-\n")
    assert s_sum(mirror, PROBES) == -s_sum(K1, PROBES)
    assert g_sum(mirror, PROBES) == -g_sum(K1, PROBES)


def test_sums_require_one_component():
    link = parse_code("comp: C1.over+\ncomp: C1.under+\n")
    with pytest.raises(CodeError):
        s_sum(link, PROBES)


def test_gluing_sum_requires_singular_probes():
    with pytest.raises(MissingExtensionError):
        g_sum(K1, (T4,))


def test_self_comparison_is_inconclusive():
    r = distinguish(K1, K1, PROBES)
    assert r["conclusion"] == "inconclusive"
    assert not r["s_differs"] and not r["g_differs"]
    assert r["witnesses"] == []


def test_distinguish_is_symmetric():
    r12 = distinguish(K1, K2, PROBES)
    r21 = distinguish(K2, K1, PROBES)
    assert r12["conclusion"] == r21["conclusion"]
    assert r12["s_differs"] == r21["s_differs"]
    assert r12["g_differs"] == r21["g_differs"]


# ---------------------------------------------------------------------------
# frozen distinguishing pair
#
# All polynomials below were derived by the coloring solver and cross-
# checked against the naive enumeration oracle in test_present.py;
# "2z + 2z^4" is also the pinned value of the glued-kink code.

def test_double_twist_sums_frozen_values():
    s1 = s_sum(K1, PROBES).as_dict()
    assert s1 == {Fingerprint(("2z",)): 2,
                  Fingerprint(("2z + 14z^4",)): -2}
    g1 = g_sum(K1, PROBES).as_dict()
    assert g1 == {Fingerprint(("2z + 2z^4",)): 2,
                  Fingerprint(("2z + 6z^4",)): -2}
    assert s_sum(K2, PROBES).is_zero()
    assert g_sum(K2, PROBES).is_zero()


def test_double_twist_pair_is_distinguished():
    r = distinguish(K1, K2, PROBES)
    assert r["conclusion"] == "inequivalent"
    assert r["g_differs"] and r["s_differs"]
    terms = {tuple(w["term"]): (w["coefficient_k1"], w["coefficient_k2"])
             for w in r["witnesses"] if w["invariant"] == "G"}
    assert terms == {("2z + 2z^4",): (2, 0), ("2z + 6z^4",): (-2, 0)}


def test_each_sum_fingerprints_its_base_once(monkeypatch):
    calls = []
    real = Fingerprint.of.__func__

    def counted(cls, code, probes, *budget):
        calls.append(code)
        return real(cls, code, probes, *budget)
    monkeypatch.setattr(Fingerprint, "of", classmethod(counted))
    k = parse_code("comp: C1.over+ C2.under+ C3.over+ C4.under- C5.over+ "
                   "C1.under+ C2.over+ C3.under+ C4.over- C5.under+\n")
    distinguish(k, k, PROBES)
    # per code and sum: five resolutions and one base
    assert len(calls) == 2 * 2 * (5 + 1)

"""Combinatorial pass codes for flat / singular / virtual link diagrams.

A code is a set of cyclic components; each component is a sequence of
crossing passes.  Flat and singular crossings appear once with role `sup`
and once with role `sub`; virtual crossings once with `v+` and once with
`v-`; classical crossings once as over and once as under, both carrying
the crossing sign.  Semiarcs are the edges between cyclically consecutive
passes, so a component with m passes has m semiarcs and a crossing-free
component is a free loop with a single semiarc.

Codes are abstract Gauss-code-like objects: no planarity is checked.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import NamedTuple, Optional

from .present import Presentation, Relation

FLAT, SING, VIRT, CLASSICAL = "F", "S", "V", "C"

_ROLES = {
    FLAT: ("sup", "sub"),
    SING: ("sup", "sub"),
    VIRT: ("v+", "v-"),
    CLASSICAL: ("over", "under"),
}


class CodeError(ValueError):
    """Malformed code text or occurrence-invariant violation."""


class Pass(NamedTuple):
    kind: str
    cid: int
    role: str
    sign: int = 0       # +1/-1 for classical passes, 0 otherwise

    @property
    def crossing(self) -> tuple:
        return (self.kind, self.cid)

    def text(self) -> str:
        if self.kind == CLASSICAL:
            return f"C{self.cid}.{self.role}{'+' if self.sign > 0 else '-'}"
        return f"{self.kind}{self.cid}.{self.role}"


_PASS_RE = re.compile(r"^([FSVC])(\d+)\.(sup|sub|v\+|v-|over|under)([+-]?)$")


class PassCode(namedtuple("PassCode", "components")):
    """components: a tuple of tuples of Pass.  where: crossing -> its two
    passes as (component, index, pass), in order of first appearance;
    built by _validate, read-only, and kept outside the one field, so out
    of equality, hash and repr."""

    def __new__(cls, components):
        self = tuple.__new__(cls, (tuple(map(tuple, components)),))
        vars(self)["where"] = _validate(self.components)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to PassCode.{name}")

    @property
    def is_classical(self) -> bool:
        return any(k == CLASSICAL for k, _ in self.where)

    def passes(self) -> list:
        return [p for c in self.components for p in c]

    def crossings(self) -> list:
        return list(self.where)

    def crossing_count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.where)
        return sum(1 for k, _ in self.where if k == kind)

    def semiarc_count(self) -> int:
        return sum(max(len(c), 1) for c in self.components)

    def text(self) -> str:
        return "".join(map(component_text, self.components))


def component_text(comp) -> str:
    """The line of one component in the code grammar, newline included."""
    return "comp: " + " ".join(p.text() for p in comp) + "\n" if comp else "comp:\n"


def _validate(components) -> dict:
    """The crossing map of `PassCode.where`; CodeError on an invalid code."""
    where = {}
    for ci, comp in enumerate(components):
        for i, p in enumerate(comp):
            if p.kind not in _ROLES or p.role not in _ROLES[p.kind]:
                raise CodeError(f"bad pass {p!r}")
            if (p.kind == CLASSICAL) != (p.sign != 0):
                raise CodeError(f"sign tag mismatch on {p.text()}")
            where.setdefault(p.crossing, []).append((ci, i, p))
    for (kind, cid), ps in where.items():
        roles = sorted(p.role for _, _, p in ps)
        want = sorted(_ROLES[kind])
        if len(ps) != 2 or roles != want:
            raise CodeError(
                f"crossing {kind}{cid} needs exactly one "
                f"{want[0]} and one {want[1]} pass, got {roles}")
        if kind == CLASSICAL and ps[0][2].sign != ps[1][2].sign:
            raise CodeError(f"crossing C{cid} has inconsistent signs")
    return where


def parse_code(text: str) -> PassCode:
    """Parse the code grammar: one `comp: <pass> <pass> ...` line per
    component; pass = `<Kind><id>.<role>` with Kind in {F, S, V, C} and
    classical roles carrying a sign tag, e.g. `C1.over+`.  Raises
    CodeError on malformed text or an invalid code."""
    comps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("comp:"):
            raise CodeError(f"line {lineno}: expected 'comp:' line")
        passes = []
        for tok in line[5:].split():
            m = _PASS_RE.match(tok)
            if not m:
                raise CodeError(f"line {lineno}: bad pass {tok!r}")
            kind, cid, role, sign = m.groups()
            if kind == CLASSICAL:
                if not sign:
                    raise CodeError(f"line {lineno}: classical pass {tok!r} needs a sign")
                passes.append(Pass(kind, int(cid), role, +1 if sign == "+" else -1))
            else:
                if sign:
                    raise CodeError(f"line {lineno}: sign tag on non-classical pass {tok!r}")
                passes.append(Pass(kind, int(cid), role))
        comps.append(tuple(passes))
    if not comps:
        raise CodeError("no components")
    return PassCode(tuple(comps))


def unknot(components: int = 1) -> PassCode:
    """Crossing-free code with the given number of free loops."""
    return PassCode(tuple(() for _ in range(components)))


# ---------------------------------------------------------------------------
# relation extraction

def extract_relations(code: PassCode) -> Presentation:
    """Fundamental presentation of a flat/singular/virtual code.

    One generator per semiarc: s0, s1, ... numbered component by
    component, the semiarc leaving pass i of a component numbered i past
    the component's first.  A flat crossing with sup-pass (in a,
    out a') and sub-pass (in b, out b') contributes up(a,b)=a' and
    dn(b,a)=b'; singular crossings contribute hup/hdn likewise.  A `v+`
    pass (in a, out a') contributes v(a)=a'; a `v-` pass (in b, out b')
    contributes v(b')=b.  Crossings contribute in order of first
    appearance.  Classical codes must be flattened first.
    """
    if code.is_classical:
        raise CodeError("classical codes carry no semiquandle relations; flatten first")
    comps, offsets, k = code.components, [], 0
    for comp in comps:
        offsets.append(k)
        k += max(len(comp), 1)

    def labels(ci, i):
        """The semiarcs into and out of pass i of component ci."""
        return f"s{offsets[ci] + (i - 1) % len(comps[ci])}", f"s{offsets[ci] + i}"

    relations = []
    for (kind, _), ps in code.where.items():
        if kind == VIRT:
            for ci, i, q in ps:
                a, a_out = labels(ci, i)
                if q.role == "v+":
                    relations.append(Relation("v", (a,), a_out))
                else:
                    relations.append(Relation("v", (a_out,), a))
        else:
            sup, sub = ps if ps[0][2].role == "sup" else ps[::-1]
            a, a_out = labels(*sup[:2])
            b, b_out = labels(*sub[:2])
            op_sup, op_sub = ("up", "dn") if kind == FLAT else ("hup", "hdn")
            relations.append(Relation(op_sup, (a, b), a_out))
            relations.append(Relation(op_sub, (b, a), b_out))
    return Presentation((f"s{j}" for j in range(k)), relations)


# ---------------------------------------------------------------------------
# classical-code operations for the degree-one invariant pipeline

def _fresh_cid(code: PassCode, kind: str) -> int:
    return max((cid for k, cid in code.where if k == kind), default=0) + 1


def flatten(code: PassCode) -> PassCode:
    """Forget over/under and signs: over-passes become sup, under-passes
    sub; virtual passes are preserved; crossing ids are kept."""
    return _resolved(code, None)


def _resolved(code: PassCode, glued: Optional[int]) -> PassCode:
    """Each classical crossing made flat, but the one of id glued made
    singular; over-passes become sup, under-passes sub."""
    def resolve(p):
        if p.kind != CLASSICAL:
            return p
        if p.cid != glued and (FLAT, p.cid) in code.where:
            raise CodeError(f"flatten would collide C{p.cid} with F{p.cid}")
        return Pass(SING if p.cid == glued else FLAT, p.cid,
                    "sup" if p.role == "over" else "sub")
    return PassCode(tuple(tuple(map(resolve, comp)) for comp in code.components))


def _classical_self_crossing(code: PassCode, cid: int):
    if (CLASSICAL, cid) not in code.where:
        raise CodeError(f"no classical crossing C{cid}")
    (c1, i1, _), (c2, i2, _) = code.where[CLASSICAL, cid]
    if c1 != c2:
        raise CodeError(f"C{cid} is not a self-crossing")
    return c1, i1, i2


def smooth_at(code: PassCode, cid: int) -> PassCode:
    """Oriented smoothing at classical self-crossing cid, then flatten.

    Both passes are removed and the strand is reconnected respecting
    orientation, which splits the component in two.
    """
    ci, i, j = _classical_self_crossing(code, cid)
    comp = code.components[ci]
    first = comp[i + 1:j]
    second = comp[j + 1:] + comp[:i]
    comps = list(code.components)
    comps[ci:ci + 1] = [tuple(first), tuple(second)]
    return flatten(PassCode(tuple(comps)))


def glue_at(code: PassCode, cid: int) -> PassCode:
    """Make classical crossing cid singular (over -> sup, under -> sub) and
    flatten everything else."""
    if (CLASSICAL, cid) not in code.where:
        raise CodeError(f"no classical crossing C{cid}")
    if (SING, cid) in code.where:
        raise CodeError(f"glue would collide C{cid} with S{cid}")
    return _resolved(code, cid)


def glue_kink(code: PassCode) -> PassCode:
    """Flatten, introduce a positive-style kink on the first semiarc, and
    glue the new crossing."""
    flat = flatten(code)
    cid = _fresh_cid(flat, SING)
    kink = (Pass(SING, cid, "sup"), Pass(SING, cid, "sub"))
    comps = list(flat.components)
    comps[0] = kink + comps[0]
    return PassCode(tuple(comps))


def disjoint_unknot(code: PassCode) -> PassCode:
    """Disjoint union with a crossing-free loop."""
    return PassCode(tuple(code.components) + ((),))


# ---------------------------------------------------------------------------
# built-in codes

_BUILTIN_CODES = {
    # one singular kink: the singular unknot SU1
    "singular_unknot_1": "comp: S1.sup S1.sub\n",
    # one singular and one flat crossing on a single component; the virtual
    # crossing of the picture does not divide semiarcs here
    "triple_crazy_trefoil": "comp: S1.sup F1.sub S1.sub F1.sup\n",
    # best-effort flat virtual Hopf link: one flat and one virtual crossing
    # between two components
    "flat_virtual_hopf": "comp: F1.sup V1.v+\ncomp: F1.sub V1.v-\n",
    "unknot": "comp:\n",
    "unlink_2": "comp:\ncomp:\n",
    "flat_virtual_trefoil": "comp: F1.sup F2.sup F1.sub F2.sub\n",
    "flat_kishino":
        "comp: F1.sup F2.sup F1.sub F2.sub F3.sup F4.sup F3.sub F4.sub\n",
}


def builtin_code(name: str) -> PassCode:
    try:
        return parse_code(_BUILTIN_CODES[name])
    except KeyError:
        raise KeyError(f"unknown builtin code {name!r}") from None


BUILTIN_CODES = tuple(sorted(_BUILTIN_CODES))

"""Presentations, the coloring solver, and counting / enhanced invariants."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import EXTENSION_OF, StructureBundle, subclosure


class PresentationError(ValueError):
    """Malformed presentation text."""


class MissingExtensionError(LookupError):
    """The presentation uses operations the bundle does not carry."""


@dataclass(frozen=True)
class Relation:
    kind: str            # up | dn | hup | hdn | v
    args: tuple          # (a, b) for binary kinds, (a,) for v
    result: str

    def labels(self) -> tuple:
        return self.args + (self.result,)


@dataclass(frozen=True)
class Presentation:
    generators: tuple
    relations: tuple

    def __post_init__(self):
        declared = set(self.generators)
        for rel in self.relations:
            for lab in rel.labels():
                if lab not in declared:
                    raise PresentationError(f"undeclared generator {lab!r}")

    def kinds_used(self) -> frozenset:
        return frozenset(rel.kind for rel in self.relations)

    def renamed(self, mapping: dict) -> "Presentation":
        gens = tuple(mapping[g] for g in self.generators)
        rels = tuple(
            Relation(r.kind, tuple(mapping[a] for a in r.args), mapping[r.result])
            for r in self.relations
        )
        return Presentation(gens, rels)


_REL_RE = re.compile(r"^(up|dn|hup|hdn)\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*=\s*(\w+)$")
_V_RE = re.compile(r"^v\(\s*(\w+)\s*\)\s*=\s*(\w+)$")


def parse_presentation(text: str) -> Presentation:
    """Parse the relation grammar.

    One relation per line or `;`-separated: `up(a,b)=c`, `dn(a,b)=c`,
    `hup(a,b)=c`, `hdn(a,b)=c`, `v(a)=b`.  An optional `gens: a b c` line
    declares generators; otherwise they are inferred in first-appearance
    order.  `#` starts a comment.
    """
    generators = []
    declared = None
    relations = []

    def note(label, lineno):
        if not label.isalnum():
            raise PresentationError(f"line {lineno}: bad label {label!r}")
        if label not in generators:
            generators.append(label)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if declared is not None:
                raise PresentationError(f"line {lineno}: duplicate gens: line")
            declared = line[5:].split()
            for g in declared:
                note(g, lineno)
            continue
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            m = _REL_RE.match(chunk)
            if m:
                kind, a, b, c = m.groups()
                for lab in (a, b, c):
                    note(lab, lineno)
                relations.append(Relation(kind, (a, b), c))
                continue
            m = _V_RE.match(chunk)
            if m:
                a, c = m.groups()
                note(a, lineno)
                note(c, lineno)
                relations.append(Relation("v", (a,), c))
                continue
            raise PresentationError(f"line {lineno}: cannot parse {chunk!r}")
    if declared is not None:
        extra = [g for g in generators if g not in declared]
        if extra:
            raise PresentationError(f"labels {extra} not in gens: declaration")
    return Presentation(tuple(generators), tuple(relations))


def format_presentation(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.generators)]
    for r in p.relations:
        lines.append(f"{r.kind}({','.join(r.args)})={r.result}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# invariants

@dataclass(frozen=True)
class InvariantResult:
    count: int
    image_sizes: tuple      # sorted multiset of |Im(f)|
    polynomial: str

    def as_dict(self) -> dict:
        return {"count": self.count,
                "image_sizes": list(self.image_sizes),
                "polynomial": self.polynomial}


def polynomial_text(image_sizes: Sequence[int]) -> str:
    """Canonical polynomial in z: ascending exponents, unit coefficients
    omitted, `0` for the empty multiset."""
    if not image_sizes:
        return "0"
    counts = {}
    for s in image_sizes:
        counts[s] = counts.get(s, 0) + 1
    terms = []
    for exp in sorted(counts):
        coef = counts[exp]
        if exp == 0:
            terms.append(str(coef))
            continue
        z = "z" if exp == 1 else f"z^{exp}"
        terms.append(z if coef == 1 else f"{coef}{z}")
    return " + ".join(terms)


def _require_ops(p: Presentation, bundle: StructureBundle) -> None:
    missing = sorted({EXTENSION_OF[k] for k in p.kinds_used() if k not in bundle.ops})
    if missing:
        raise MissingExtensionError(
            f"presentation needs {' and '.join(missing)} extension(s)")


def _compile(p: Presentation, bundle: StructureBundle) -> list:
    """Each relation as (forward table, inverse table or None, labels),
    the tables taken from the bundle's 0-based compiled form.

    up/dn/v relations carry their inverse (axiom 0 / bijectivity of v);
    hat relations carry None, since no inverse is axiomatized for them.
    """
    return [(bundle.ops[rel.kind], bundle.ops.get(rel.kind + "_inv"), rel.labels())
            for rel in p.relations]


def _propagate(relations, assignment):
    """Run forward/backward propagation to a fixpoint over compiled
    relations, with 0-based values.  Returns False on contradiction."""
    changed = True
    while changed:
        changed = False
        for forward, inverse, labels in relations:
            if len(labels) == 2:        # v(a) = c
                a, c = labels
                av, cv = assignment.get(a), assignment.get(c)
                if av is not None:
                    want = forward[av]
                    if cv is None:
                        assignment[c] = want
                        changed = True
                    elif cv != want:
                        return False
                elif cv is not None:
                    assignment[a] = inverse[cv]
                    changed = True
                continue
            a, b, c = labels
            av, bv, cv = assignment.get(a), assignment.get(b), assignment.get(c)
            if av is not None and bv is not None:
                want = forward[av][bv]
                if cv is None:
                    assignment[c] = want
                    changed = True
                elif cv != want:
                    return False
            elif cv is not None and bv is not None and inverse is not None:
                assignment[a] = inverse[cv][bv]
                changed = True
    return True


def colorings(p: Presentation, bundle: StructureBundle):
    """Yield every satisfying assignment generator -> 1..n, deterministically.

    Backtracking with constraint propagation; branches on the unassigned
    generator occurring in the most relations, ties broken by label.
    """
    _require_ops(p, bundle)
    n = bundle.n
    relations = _compile(p, bundle)
    occurrence = {g: 0 for g in p.generators}
    for rel in p.relations:
        for lab in rel.labels():
            occurrence[lab] += 1

    def solve(assignment):
        work = dict(assignment)
        if not _propagate(relations, work):
            return
        free = [g for g in p.generators if g not in work]
        if not free:
            yield {g: val + 1 for g, val in work.items()}
            return
        branch = min(free, key=lambda g: (-occurrence[g], g))
        for val in range(n):
            work2 = dict(work)
            work2[branch] = val
            yield from solve(work2)

    yield from solve({})


def count_colorings(p: Presentation, bundle: StructureBundle) -> int:
    """Number of homomorphisms from the presented structure to the bundle."""
    return sum(1 for _ in colorings(p, bundle))


def enhanced_invariant(p: Presentation, bundle: StructureBundle) -> InvariantResult:
    """Counting invariant enhanced by image-subalgebra sizes.

    The image of a coloring is the subclosure of its value set, so the
    polynomial records z^|Im(f)| for each coloring f.
    """
    sizes = sorted(
        len(subclosure(bundle, set(f.values()))) for f in colorings(p, bundle)
    )
    return InvariantResult(len(sizes), tuple(sizes), polynomial_text(sizes))


# ---------------------------------------------------------------------------
# built-in presentations

# Fundamental presentation of the flat Kishino knot: two two-crossing halves
# joined in a single 8-semiarc cycle a b c d e f g h.
_KISHINO = """\
gens: a b c d e f g h
up(a,c)=b; dn(c,a)=d; up(b,d)=c; dn(d,b)=e
up(e,g)=f; dn(g,e)=h; up(f,h)=g; dn(h,f)=a
"""

_TCT = """\
gens: a b c d
hup(a,c)=b; hdn(c,a)=d; up(d,b)=a; dn(b,d)=c
"""

_SU1 = """\
gens: a b
hup(a,b)=b; hdn(b,a)=a
"""

_UNLINK_RE = re.compile(r"^unlink\((\d+)\)$")


def builtin(name: str) -> Presentation:
    """Built-in presentations.

    flat_kishino, triple_crazy_trefoil, singular_unknot_1, unknot, and
    unlink(k) for the crossing-free k-component diagram.
    """
    if name == "flat_kishino":
        return parse_presentation(_KISHINO)
    if name == "triple_crazy_trefoil":
        return parse_presentation(_TCT)
    if name == "singular_unknot_1":
        return parse_presentation(_SU1)
    if name == "unknot":
        return Presentation(("a",), ())
    m = _UNLINK_RE.match(name)
    if m:
        k = int(m.group(1))
        gens = tuple(f"a{i}" for i in range(1, k + 1))
        return Presentation(gens, ())
    raise KeyError(f"unknown builtin presentation {name!r}")


BUILTIN_PRESENTATIONS = (
    "flat_kishino", "triple_crazy_trefoil", "singular_unknot_1",
    "unknot", "unlink(2)",
)

"""Presentations, the coloring solver, and counting / enhanced invariants.

The invariants are computed piece by piece: labels that no chain of
relations joins color independently, so the count is the product of the
pieces' counts and the enhanced invariant joins the pieces' value-set
histograms.  `colorings` lists each coloring of a whole presentation.

What the solver derives from a bundle alone is built on first use and
kept with the bundle object, as `bundle.ops` is: each constraint table
with its propagation memos (`_table`), and the image size of each value
set (`enhanced_invariant`).  Calls on one long-lived bundle, such as a
builtin one, share them; a bundle built for one call pays for them once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .algebra import (EXTENSION_OF, ResourceBudgetExceeded, StructureBundle,
                      subclosure)


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


_REL_RE = re.compile(r"^(up|dn|hup|hdn)\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*=\s*(\w+)$")
_V_RE = re.compile(r"^v\(\s*(\w+)\s*\)\s*=\s*(\w+)$")


def parse_presentation(text: str) -> Presentation:
    """Parse the relation grammar.

    One relation per line or `;`-separated: `up(a,b)=c`, `dn(a,b)=c`,
    `hup(a,b)=c`, `hdn(a,b)=c`, `v(a)=b`.  An optional `gens: a b c` line
    declares generators; otherwise they are inferred in first-appearance
    order.  `#` starts a comment.  Raises PresentationError on any text
    outside this grammar.
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


# the sub-pass relation that follows a sup-pass relation at one crossing
_PAIRED = {"up": "dn", "hup": "hdn"}

# search nodes one `colorings` call may visit before giving up
NODE_BUDGET = 100_000


def _rows(ops, kinds: tuple, n: int) -> list:
    """The 0-based value tuples of one relation, or of a crossing's pair."""
    if kinds == ("v",):
        v = ops["v"]
        return [(x, v[x]) for x in range(n)]
    if len(kinds) == 2:
        sup, sub = ops[kinds[0]], ops[kinds[1]]
        return [(x, y, sup[x][y], sub[y][x]) for x in range(n) for y in range(n)]
    t = ops[kinds[0]]
    return [(x, y, t[x][y]) for x in range(n) for y in range(n)]


class _RowsIn(dict):
    """rows[dom]: the bitmask of a table's rows whose value at one label
    lies in the value mask dom, computed on first lookup."""

    def __init__(self, support: list):
        super().__init__()
        self.support = support      # support[x]: the rows whose value is x

    def __missing__(self, dom: int) -> int:
        rows = 0
        for _, x in _bits(dom):
            rows |= self.support[x]
        self[dom] = rows
        return rows


class _ValsOf(dict):
    """vals[live]: for each label of a table, the value mask that the rows
    in live carry there, computed on first lookup.

    One memo per table, not per label, so propagation makes one lookup
    per constraint: with per-label memos a call on a new bundle, which
    misses more than it hits, ran slower than rebuilding the masks.
    """

    def __init__(self, supports: list):
        super().__init__()
        self.supports = supports    # per label, as in `_RowsIn`

    def __missing__(self, live: int) -> tuple:
        out = []
        for support in self.supports:
            vals = 0
            for x, rows in enumerate(support):
                if rows & live:
                    vals |= 1 << x
            out.append(vals)
        out = self[live] = tuple(out)
        return out


def _table(rows, slot: tuple, width: int, n: int) -> tuple:
    """A table over `width` distinct labels, as (rows memos, vals memo,
    all rows), one `_RowsIn` per label and one `_ValsOf`.

    Position i of each row belongs to distinct label slot[i]; a label that
    repeats (a kink) keeps only the rows that agree on it.  Row r of the
    kept rows, in sorted order, is bit 1 << r of every row mask.
    """
    kept = set()
    for row in rows:
        proj = [None] * width
        for j, x in zip(slot, row):
            if proj[j] is None:
                proj[j] = x
            elif proj[j] != x:
                break
        else:
            kept.add(tuple(proj))
    support = [[0] * n for _ in range(width)]
    for r, row in enumerate(sorted(kept)):
        for j, x in enumerate(row):
            support[j][x] |= 1 << r
    return tuple(_RowsIn(s) for s in support), _ValsOf(support), (1 << len(kept)) - 1


def _constraints(p: Presentation, bundle: StructureBundle) -> list:
    """The presentation as table constraints (scope, rows memos, vals
    memo, all rows), scope holding generator indices, over 0-based values.

    A crossing's sup-pass relation up(a,b)=a' directly followed by its
    sub-pass relation dn(b,a)=b' (or hup/hdn) is one constraint on
    (a, b, a', b') with the n^2 rows (x, y, up[x][y], dn[y][x]); a v
    relation is one on (a, a'); any other relation keeps its own 3-label
    table, since hand-written presentations need not pair.  Constraints of
    the same kinds and label pattern share one table, built once per
    bundle (`StructureBundle._tables`), memos and all.
    """
    index = {g: i for i, g in enumerate(p.generators)}
    tables = bundle._tables
    out = []
    rels = p.relations
    i = 0
    while i < len(rels):
        rel = rels[i]
        nxt = rels[i + 1] if i + 1 < len(rels) else None
        kinds, labels = (rel.kind,), rel.labels()
        if (nxt is not None and _PAIRED.get(rel.kind) == nxt.kind
                and nxt.args == rel.args[::-1]):
            kinds, labels = (rel.kind, nxt.kind), labels + (nxt.result,)
            i += 1
        i += 1
        scope = tuple(dict.fromkeys(labels))
        slot = tuple(scope.index(lab) for lab in labels)
        if (kinds, slot) not in tables:
            tables[kinds, slot] = _table(_rows(bundle.ops, kinds, bundle.n), slot,
                                         len(scope), bundle.n)
        out.append((tuple(index[lab] for lab in scope),) + tables[kinds, slot])
    return out


@lru_cache(maxsize=1 << 12)
def _bits(d: int) -> tuple:
    """The set bits of d, lowest first, as (bit, index) pairs."""
    out = []
    while d:
        low = d & -d
        out.append((low, low.bit_length() - 1))
        d ^= low
    return tuple(out)


def _arc_consistent(constraints, watchers, domains: list, queue, full: int) -> bool:
    """Narrow domains in place until every constraint is generalized
    arc consistent, starting from the constraints in queue.

    A constraint's live rows are those whose every value lies in its
    label's domain (the AND of rows[dom] over its labels); each of its
    labels keeps only the values some live row carries (vals[live]), and
    a label that shrinks queues the other constraints that watch it.
    Returns False when some constraint has no live row.
    """
    pending = list(queue)
    queued = set(pending)
    while pending:
        c = pending.pop()
        queued.discard(c)
        scope, rows, vals, live = constraints[c]
        for lab, rows_in in zip(scope, rows):
            dom = domains[lab]
            if dom != full:
                live &= rows_in[dom]
        if not live:
            return False
        # every live row's values lie in the domains, so vals[live] is
        # the subset of each domain that some live row supports
        for lab, kept in zip(scope, vals[live]):
            if kept != domains[lab]:
                domains[lab] = kept
                for other in watchers[lab]:
                    if other != c and other not in queued:
                        queued.add(other)
                        pending.append(other)
    return True


class _Budget:
    """Search nodes visited and colorings found against one node budget,
    shared by every search of one call."""

    def __init__(self, limit: int):
        self.limit, self.nodes, self.found = limit, 0, 0


def _search(constraints, size: int, full: int, budget: _Budget):
    """Yield the domains of each solution of constraints over labels
    0..size-1, every domain then one bit, deterministically.

    Propagation makes every constraint generalized arc consistent: it
    drops each value no row of the constraint supports within the current
    domains, and requeues the constraints that watch a label it narrowed.
    The search then branches on the open label with the smallest domain
    (ties to the first label), trying its values in ascending order.

    A node is one domain state the search propagates: the root, or one
    value tried for a branching label.  Each solution yielded is one such
    node.  Visiting more than budget.limit nodes in all raises
    ResourceBudgetExceeded, after the solutions found so far.
    """
    watchers = [[] for _ in range(size)]
    for c, (scope, _, _, _) in enumerate(constraints):
        for lab in scope:
            watchers[lab].append(c)
    stack = [([full] * size, range(len(constraints)))]
    nodes, limit = budget.nodes, budget.limit
    while stack:
        domains, queue = stack.pop()
        nodes += 1
        if nodes > limit:
            raise ResourceBudgetExceeded(nodes, budget.found, "colorings")
        if not _arc_consistent(constraints, watchers, domains, queue, full):
            continue
        _, branch = min(((d.bit_count(), lab) for lab, d in enumerate(domains)
                         if d & (d - 1)), default=(0, None))
        if branch is None:
            budget.nodes = nodes
            budget.found += 1
            yield domains
            continue
        for bit, _ in reversed(_bits(domains[branch])):
            child = domains.copy()
            child[branch] = bit
            stack.append((child, watchers[branch]))
    budget.nodes = nodes


def colorings(p: Presentation, bundle: StructureBundle,
              node_budget: int = NODE_BUDGET):
    """Yield every satisfying assignment generator -> 1..n, deterministically.

    The relations become table constraints: one per crossing on its four
    labels (a, b, a', b'), one per v relation on two, and one per relation
    that does not pair into a crossing on three (see `_constraints`).
    Each label keeps a bitmask domain of the values still possible, and
    `_search` lists the solutions of the whole presentation.  Each
    coloring costs a node, so a presentation with more colorings than
    node_budget cannot finish; visiting more than node_budget nodes raises
    ResourceBudgetExceeded, after the colorings found so far.
    """
    _require_ops(p, bundle)
    n = bundle.n
    constraints = _constraints(p, bundle)
    for domains in _search(constraints, len(p.generators), (1 << n) - 1,
                           _Budget(node_budget)):
        yield {g: d.bit_length() for g, d in zip(p.generators, domains)}


def _pieces(size: int, constraints) -> list:
    """The independent pieces of a constraint problem over labels
    0..size-1, as (label count, constraints) pairs in order of least label.

    Union-find over the constraint scopes joins every label a constraint
    reads.  A label in no constraint is a piece of its own with no
    constraint.  Each piece's constraints keep their order and are
    reindexed to the piece's labels, which keep theirs, so a problem that
    is one piece comes back as it is.
    """
    root = list(range(size))

    def find(lab):
        while root[lab] != lab:
            root[lab] = root[root[lab]]
            lab = root[lab]
        return lab

    for scope, _, _, _ in constraints:
        for lab in scope[1:]:
            root[find(lab)] = find(scope[0])
    pieces = {}
    for lab in range(size):
        pieces.setdefault(find(lab), ([], []))[0].append(lab)
    if len(pieces) == 1:
        return [(size, constraints)]
    for con in constraints:
        pieces[find(con[0][0])][1].append(con)
    out = []
    for labels, cons in pieces.values():
        local = {lab: i for i, lab in enumerate(labels)}
        out.append((len(labels), [(tuple(local[lab] for lab in scope), rows, vals, live)
                                  for scope, rows, vals, live in cons]))
    return out


def _piece_solutions(p: Presentation, bundle: StructureBundle, budget: _Budget):
    """Yield, per piece of p, None for a free label (it takes each value
    once), else the `_search` of the piece against the shared budget."""
    _require_ops(p, bundle)
    full = (1 << bundle.n) - 1
    for size, cons in _pieces(len(p.generators), _constraints(p, bundle)):
        yield _search(cons, size, full, budget) if cons else None


def count_colorings(p: Presentation, bundle: StructureBundle,
                    node_budget: int = NODE_BUDGET) -> int:
    """Number of homomorphisms from the presented structure to the bundle.

    Pieces that share no label color independently (see `_pieces`), so
    the count is the product of the pieces' counts: a free label counts
    n, and the searches of the other pieces share node_budget.
    """
    total = 1
    for solutions in _piece_solutions(p, bundle, _Budget(node_budget)):
        total *= bundle.n if solutions is None else sum(1 for _ in solutions)
    return total


def enhanced_invariant(p: Presentation, bundle: StructureBundle,
                       node_budget: int = NODE_BUDGET) -> InvariantResult:
    """Counting invariant enhanced by image-subalgebra sizes.

    The image of a coloring is the subclosure of its value set, so the
    polynomial records z^|Im(f)| for each coloring f.  The value set of
    a coloring of the whole presentation is the union of its pieces'
    value sets, so the pieces' {value mask: colorings} histograms combine
    by OR-convolution, and each final mask is closed once per bundle
    (`StructureBundle._image_sizes`).  The searches
    share node_budget as in `count_colorings`; since the result lists one
    size per coloring, a product of counts above node_budget raises
    ResourceBudgetExceeded too, reporting that product as found.
    """
    budget = _Budget(node_budget)
    hist, total = {0: 1}, 1
    for solutions in _piece_solutions(p, bundle, budget):
        if solutions is None:
            piece = {1 << x: 1 for x in range(bundle.n)}
        else:
            piece = {}
            for domains in solutions:
                mask = 0
                for d in domains:
                    mask |= d
                piece[mask] = piece.get(mask, 0) + 1
        total *= sum(piece.values())
        if total > node_budget:
            raise ResourceBudgetExceeded(budget.nodes, total, "colorings")
        joined = {}
        for a, ka in hist.items():
            for b, kb in piece.items():
                joined[a | b] = joined.get(a | b, 0) + ka * kb
        hist = joined
    closed = bundle._image_sizes
    sizes = []
    for mask, k in hist.items():
        if mask not in closed:
            closed[mask] = len(subclosure(bundle, frozenset(x + 1 for _, x in _bits(mask))))
        sizes += [closed[mask]] * k
    sizes.sort()
    return InvariantResult(len(sizes), tuple(sizes), polynomial_text(sizes))


# ---------------------------------------------------------------------------
# built-in presentations

# at most three digits, so that no name builds more than 999 generators
_UNLINK_RE = re.compile(r"^unlink\((\d{1,3})\)$")


def builtin(name: str) -> Presentation:
    """Built-in presentations: the relations of each builtin code of
    `diagram` (flat_kishino, triple_crazy_trefoil, singular_unknot_1,
    unknot, ...), and unlink(k) for the crossing-free k-component
    diagram, 0 <= k <= 999.  KeyError for any other name.
    """
    from .diagram import builtin_code, extract_relations, unknot  # diagram imports present

    m = _UNLINK_RE.match(name)
    return extract_relations(unknot(int(m.group(1))) if m else builtin_code(name))


BUILTIN_PRESENTATIONS = (
    "flat_kishino", "triple_crazy_trefoil", "singular_unknot_1",
    "unknot", "unlink(2)",
)

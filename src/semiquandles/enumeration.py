"""Exhaustive enumeration of semiquandles and their extensions.

Both searches check the axiom catalog of `algebra`, the one place each
axiom is written, by evaluating its predicates.  Semiquandles of order n
are found by a depth-first search that sets the columns of the up table
to permutations (axiom 0 demands exactly that), reads the dn table
through axiom ii, checks each axiom instance on the partial tables as
soon as every entry it reads is known, and of each survivor checks only
that the columns of dn are permutations, the one axiom not yet proved.
Both searches build what they yield without the checks of the public
constructors (`algebra._trusted`).
Singular extensions are found by backtracking over the cells of hup in
row-major order, values ascending, with hdn derived from axiom hi.a.
Each instance of the other hat axioms is compiled once, by evaluating
its predicate over symbolic tables, into a comparison of two entries of
constant matrices read at entries of one flat state, and is checked in
one loop as soon as the last hup cell it reads is set.  Both searches
carry an explicit node budget (one candidate column tuple for
semiquandles, a pruned block counting one per candidate in it; one value
tried in one hup cell for extensions); exceeding it raises instead of
truncating silently.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .algebra import (_FLAT_AXIOMS, _HAT_AXIOMS, ResourceBudgetExceeded,
                      SemiquandleTable, SingularExtension, StructureBundle,
                      _trusted, automorphisms, perm_compose, perm_inverse)

# enumerate_semiquandles builds 3n^3 + 2n^2 axiom checks before its first node
MAX_ORDER = 16


@dataclass(frozen=True)
class CanonicalForm:
    """Lexicographically least simultaneous relabeling of a table pair.

    Two structures are isomorphic exactly when their canonical forms are
    equal; computed by minimum over all n! relabelings, which is fine at
    the orders this package targets.
    """

    up: tuple
    dn: tuple

    @classmethod
    def of(cls, table: SemiquandleTable) -> "CanonicalForm":
        n = table.n
        best = None
        for phi in itertools.permutations(range(1, n + 1)):
            inv = perm_inverse(phi)
            relabeled = tuple(
                tuple(
                    tuple(phi[t[inv[x] - 1][inv[y] - 1] - 1]
                          for y in range(n))
                    for x in range(n))
                for t in (table.up, table.dn))
            if best is None or relabeled < best:
                best = relabeled
        return cls(*best)


def _instances(axioms, n: int):
    """Yield (wait, holds, witness) for every instance of the catalog
    entries at order n, witnesses 0-based: the pairs, then the triples,
    each in product order with the entries in catalog order."""
    for arity in (2, 3):
        entries = [e for e in axioms if e[1] == arity]
        for witness in itertools.product(range(n), repeat=arity):
            for _, _, wait, holds in entries:
                yield wait, holds, witness


class _Blocked(Exception):
    """An axiom instance used an entry of a column of up that is not set
    yet."""

    def __init__(self, column: int):
        self.column = column


class _Unset:
    """An entry of up in a column c the search has not set, or column c
    of up's inverse: reading an entry of it, using it as an index or
    comparing it raises _Blocked(c)."""

    __slots__ = ("column",)

    def __init__(self, column: int):
        self.column = column

    def __index__(self, *_):
        raise _Blocked(self.column)

    __getitem__ = __eq__ = __index__


class _DnRow:
    """Row a of dn, read through axiom ii: dn[a][b] is the row of column
    up[b][a] that holds a."""

    __slots__ = ("up", "invs", "a")

    def __init__(self, up: list, invs: list, a: int):
        self.up, self.invs, self.a = up, invs, a

    def __getitem__(self, b):
        return self.invs[self.up[b][self.a]][self.a]


def _checks_hold(waiting: list, column: int) -> bool:
    """Run the checks waiting on the column just set, in order, and
    return False at the first that fails.  A check that uses an entry of
    a column still unset waits on that column instead."""
    for check in waiting[column]:
        try:
            if not check():
                return False
        except _Blocked as e:
            waiting[e.column].append(check)
    return True


def enumerate_semiquandles(n: int, up_to_iso: bool = False,
                           node_budget: int = 10_000_000):
    """Yield every semiquandle of order n in deterministic order.

    A depth-first search sets the columns of up in order, each to the
    permutations in itertools.permutations order, so tables come out in
    the order of a product over all candidate column tuples.  dn is read
    through axiom ii, so dn[a][b] is known once columns a and up[b][a]
    are set.  Each instance of the axioms is checked once every entry it
    reads is known, and a failing one prunes every candidate below the
    column just set.  A candidate that reaches the last column has
    passed every instance, and ii.a holds by the derivation of dn, so it
    is kept when the columns of dn are permutations (axiom 0).  One node
    is one candidate column tuple, counted against the budget whether it
    is checked or pruned with its block, so the budget is exceeded at the
    same candidate, with the same tables yielded, as when every candidate
    is checked.  With up_to_iso, one representative per isomorphism class
    is yielded (the first in enumeration order).
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be from 1 to {MAX_ORDER}, got {n}")
    unset = [_Unset(c) for c in range(n)]
    up = [list(unset) for _ in range(n)]     # up[r][c], unset[c] until set
    invs = list(unset)      # invs[c][v] = the r with up[r][c] = v
    dn = [_DnRow(up, invs, a) for a in range(n)]

    # waiting[c]: the checks to run once column c is set, each an axiom
    # instance of the catalog first filed under its wait column.  A
    # choice for column c appends only to the lists of later columns,
    # and marks[c] holds their lengths from before it, so the next choice
    # truncates them back.
    waiting = [[] for _ in range(n)]
    for wait, axiom, w in _instances(_FLAT_AXIOMS, n):
        if wait is not None:
            waiting[max(w[k] for k in wait)].append(
                functools.partial(axiom, up, dn, *w))
    below = [math.factorial(n) ** (n - 1 - c) for c in range(n)]
    choices = [None] * n
    marks = [None] * n
    nodes = found = 0
    seen = set()
    depth = 0
    choices[0] = itertools.permutations(range(n))
    marks[0] = [len(w) for w in waiting]
    while depth >= 0:
        column = next(choices[depth], None)
        if column is None:
            for row in up:
                row[depth] = unset[depth]
            invs[depth] = unset[depth]
            depth -= 1
            continue
        inverse = [0] * n
        for row, v in enumerate(column):
            inverse[v] = row
            up[row][depth] = v
        invs[depth] = inverse
        for c in range(depth + 1, n):
            del waiting[c][marks[depth][c]:]
        holds = _checks_hold(waiting, depth)
        if holds and depth + 1 < n:
            depth += 1
            choices[depth] = itertools.permutations(range(n))
            marks[depth] = [len(w) for w in waiting]
            continue
        nodes += below[depth]
        if nodes > node_budget:
            # counting one candidate at a time passes the budget at
            # this candidate, and a pruned block yields nothing
            raise ResourceBudgetExceeded(max(node_budget, 0) + 1, found)
        if not holds:
            continue
        dn_rows = tuple(tuple(dn[a][b] + 1 for b in range(n))
                        for a in range(n))
        # axiom 0 for dn is the one left: up's holds by construction, ii.a
        # by the derivation of dn, and every other instance has held
        if any(len(set(column)) < n for column in zip(*dn_rows)):
            continue
        up_rows = tuple(tuple(v + 1 for v in row) for row in up)
        table = _trusted(SemiquandleTable, up=up_rows, dn=dn_rows)
        if up_to_iso:
            key = CanonicalForm.of(table)
            if key in seen:
                continue
            seen.add(key)
        found += 1
        yield table


class _Sym:
    """A value at plan time of the hat search: M[h[i]][h[j]], held as
    side = (M, i, j), with h the flat state of the search and M a padded
    1-based matrix of constants.  Comparing two gives the check
    (L, a1, a2, R, b1, b2).  A hat entry h[i] is (first, i, i), and it
    indexes the readers of up and dn at its place, at = n + i; any other
    value used as an index raises TypeError."""

    __slots__ = ("side", "at")

    def __init__(self, m, i, j, at=None):
        self.side, self.at = (m, i, j), at

    def __index__(self):
        return self.at

    def __eq__(self, other):
        return self.side + other.side


def _padded(t) -> tuple:
    """The 0-based table t as a 1-based matrix with a leading row and
    column of zeros, so that it is indexed by values of h."""
    n = len(t)
    return ((0,) * (n + 1),) + tuple((0,) + tuple(v + 1 for v in row) for row in t)


class _HatRow:
    """Row h[i] of up or dn at plan time."""

    __slots__ = ("pad", "rows", "i")

    def __init__(self, pad, rows, i):
        self.pad, self.rows, self.i = pad, rows, i

    def __getitem__(self, y):
        if isinstance(y, int):
            return _Sym(self.rows[y], self.i, self.i)
        # y.at - n is y's place in h, and a TypeError unless y is a hat entry
        return _Sym(self.pad, self.i, y.at - len(self.rows))


def _hat_readers(up: tuple, dn: tuple) -> tuple:
    """(up, dn, hup, hdn) at plan time: hup[x][y] is the hat entry of
    h[x*n + y] and hdn[a][b] that of h[n*n + a*n + b]; up and dn are
    lists of their rows at the constants, then at the hat entries."""
    n = len(up)
    size = n + 1
    first = tuple((i,) * size for i in range(size))
    entries = range(2 * n * n)
    hats = [_Sym(first, i, i, n + i) for i in entries]
    readers = []
    for t in (up, dn):
        # per constant x the matrix of t[x][h - 1], and per constant y
        # that of t[h - 1][y], at each value h
        pad = _padded(t)
        cols = [tuple((v,) * size for v in row) for row in pad[1:]]
        rows = [tuple((row[y],) * size for row in pad) for y in range(1, size)]
        readers.append([(*t[x], *(_Sym(cols[x], i, i) for i in entries)) for x in range(n)]
                       + [_HatRow(pad, rows, i) for i in entries])
    grid = [hats[k:k + n] for k in range(0, 2 * n * n, n)]
    return (*readers, grid[:n], grid[n:])


def _hat_search_plan(up: tuple, dn: tuple, up_inv: tuple) -> tuple:
    """The hat search over the 0-based tables up, dn, filed per hup cell.

    The search sets hup[x][y] at step x*n + y, and derives hdn[a][b] once
    the two hup cells of axiom hi.a are set.  For each step this returns
    the derivations (t, M, i, j), setting h[t] = M[h[i]][h[j]]; the checks
    whose last entry read is set there, each holding iff
    L[h[a1]][h[a2]] == R[h[b1]][h[b2]], with duplicates and checks of two
    equal sides dropped; and the rows (k, span) finished there, row k of
    hup (k < n) or hdn being h[span].  A hat entry is only read at up and
    dn values, so one evaluation over _hat_readers compiles an instance.
    """
    n = len(up)
    cells = n * n
    r = range(n)
    # axiom hi.a: hdn[a][b] = up_inv[hup[dn[a][b]][up[b][a]]][hup[b][a]]
    sources = [(dn[a][b] * n + up[b][a], b * n + a) for a in r for b in r]
    step = [*range(cells), *map(max, sources)]
    derive = [[] for _ in range(cells)]
    inverse = _padded(up_inv)
    for t, (i, j) in enumerate(sources, cells):
        derive[step[t]].append((t, inverse, i, j))
    readers = _hat_readers(up, dn)
    checks = [[] for _ in range(cells)]
    kept = set()
    for wait, axiom, w in _instances(_HAT_AXIOMS, n):
        if wait is None:
            continue
        check = axiom(*readers, *w)
        if check[:3] != check[3:] and check not in kept:
            kept.add(check)
            _, a1, a2, _, b1, b2 = check
            checks[max(step[a1], step[a2], step[b1], step[b2])].append(check)
    finish = [[] for _ in range(cells)]
    for k in range(2 * n):
        span = slice(k * n, k * n + n)
        finish[max(step[span])].append((k, span))
    return derive, checks, finish


def enumerate_singular_extensions(table: SemiquandleTable,
                                  node_budget: int = 10_000_000):
    """Yield every compatible singular extension of the table.

    A backtracking search over the n^2 cells of hup, filled in row-major
    order with values tried in ascending order, so extensions come out in
    the order of a product over all hup tables.  Each hdn entry is derived
    from axiom hi once both hup cells it depends on are set.  Each
    instance of the hat axioms is checked as soon as the last hup cell it
    reads is set, and a failing one prunes every table below that cell.
    Each row is frozen once, when its last entry is set, and shared by
    every extension below.  One node is one value tried in one cell,
    counted against the budget.
    """
    ops = StructureBundle(table).ops
    n = table.n
    derive, checks, finish = _hat_search_plan(ops["up"], ops["dn"], ops["up_inv"])
    h = [0] * (2 * n * n)
    rows = [None] * (2 * n)
    last = n * n - 1
    nodes = found = 0
    c = 0
    while c >= 0:
        value = h[c] + 1
        if value > n:
            h[c] = 0
            c -= 1
            continue
        h[c] = value
        nodes += 1
        if nodes > node_budget:
            raise ResourceBudgetExceeded(nodes, found)
        for t, m, i, j in derive[c]:
            h[t] = m[h[i]][h[j]]
        for left, a1, a2, right, b1, b2 in checks[c]:
            if left[h[a1]][h[a2]] != right[h[b1]][h[b2]]:
                break
        else:
            for k, span in finish[c]:
                rows[k] = tuple(h[span])
            if c < last:
                c += 1
                continue
            found += 1
            yield _trusted(SingularExtension, hup=tuple(rows[:n]), hdn=tuple(rows[n:]))


def enumerate_virtual_structures(bundle: StructureBundle) -> list:
    """The distinct virtual structures of the bundle: the least member of
    each conjugacy class of its automorphism group."""
    autos = automorphisms(bundle)
    reps = []
    seen = set()
    for a in autos:
        if a in seen:
            continue
        cls = {perm_compose(g, perm_compose(a, perm_inverse(g))) for g in autos}
        seen |= cls
        reps.append(min(cls))
    return reps

"""Exhaustive enumeration of semiquandles and their extensions.

Both searches check the axiom catalog of `algebra`, the one place each
axiom is written, by evaluating its predicates on partial tables.
Semiquandles of order n are found by a depth-first search that sets the
columns of the up table to permutations (axiom 0 demands exactly that),
reads the dn table through axiom ii, checks each axiom instance as soon
as every entry it reads is known, and checks the survivors in full.
Singular extensions are found by backtracking over the cells of hup in
row-major order, values ascending, with hdn derived from axiom hi and
each hat-axiom instance checked as soon as the last hup cell it reads is
set.  Both searches carry an explicit node budget (one candidate column
tuple for semiquandles, a pruned block counting one per candidate in it;
one value tried in one hup cell for extensions); exceeding it raises
instead of truncating silently.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .algebra import (_FLAT_AXIOMS, _HAT_AXIOMS, AxiomError,
                      ResourceBudgetExceeded, SemiquandleTable,
                      SingularExtension, StructureBundle, automorphisms,
                      perm_compose, perm_inverse)

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
    column just set; each candidate that reaches the last column is
    checked in full.  One node is one candidate column tuple, counted
    against the budget whether it is checked or pruned with its block,
    so the budget is exceeded at the same candidate, with the same
    tables yielded, as when every candidate is checked.  With up_to_iso,
    one representative per isomorphism class is yielded (the first in
    enumeration order).
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
        up_rows = tuple(tuple(v + 1 for v in row) for row in up)
        dn_rows = tuple(tuple(dn[a][b] + 1 for b in range(n))
                        for a in range(n))
        try:
            table = SemiquandleTable(up_rows, dn_rows)
        except AxiomError:
            continue
        if up_to_iso:
            key = CanonicalForm.of(table)
            if key in seen:
                continue
            seen.add(key)
        found += 1
        yield table


class _LastCell:
    """A row of hup or hdn at plan time: reading an entry notes in
    seen[0] the latest hup cell read so far and returns 0."""

    __slots__ = ("cells", "seen")

    def __init__(self, cells, seen: list):
        self.cells, self.seen = cells, seen

    def __getitem__(self, j):
        if self.cells[j] > self.seen[0]:
            self.seen[0] = self.cells[j]
        return 0


def _hat_search_plan(up: tuple, dn: tuple, hup: list, hdn: list) -> tuple:
    """The hat axioms over the 0-based tables up and dn, filed per hup cell.

    Cell x*n + y holds hup[x][y].  For each cell this returns the entries
    (a, b) of hdn that axiom hi derives once the cell is set, and every
    instance of the hat axioms of the catalog whose last hup cell read is
    this one, as a check() -> bool over the 2-D lists hup and hdn.  An hdn
    read counts as reads of the two cells it is derived from.  A hat entry
    is only ever read at indices that are up and dn values, so one
    evaluation per instance, over tables that record the cells read,
    finds its last cell.
    """
    n = len(up)
    r = range(n)
    # axiom hi: hdn[a][b] = up_inv[hup[dn[a][b]][up[b][a]]][hup[b][a]]
    hdn_last = [[max(b * n + a, dn[a][b] * n + up[b][a]) for b in r] for a in r]
    derive = [[] for _ in range(n * n)]
    for a in r:
        for b in r:
            derive[hdn_last[a][b]].append((a, b))
    seen = [-1]
    hup_reads = [_LastCell(range(x * n, x * n + n), seen) for x in r]
    hdn_reads = [_LastCell(row, seen) for row in hdn_last]
    checks = [[] for _ in range(n * n)]
    for _, axiom, w in _instances(_HAT_AXIOMS, n):
        seen[0] = -1
        axiom(up, dn, hup_reads, hdn_reads, *w)
        checks[seen[0]].append(functools.partial(axiom, up, dn, hup, hdn, *w))
    return derive, checks


def enumerate_singular_extensions(table: SemiquandleTable,
                                  node_budget: int = 10_000_000):
    """Yield every compatible singular extension of the table.

    A backtracking search over the n^2 cells of hup, filled in row-major
    order with values tried in ascending order, so extensions come out in
    the order of a product over all hup tables.  Each hdn entry is derived
    from axiom hi once both hup cells it depends on are set.  Each
    instance of the hat axioms is checked as soon as the last hup cell it
    reads is set, and a failing one prunes every table below that cell.
    One node is one value tried in one cell, counted against the budget.
    """
    ops = StructureBundle(table).ops
    up, dn, up_inv = ops["up"], ops["dn"], ops["up_inv"]
    n = table.n
    hup = [[-1] * n for _ in range(n)]
    hdn = [[0] * n for _ in range(n)]
    derive, checks = _hat_search_plan(up, dn, hup, hdn)
    cells = [(hup[x], y) for x in range(n) for y in range(n)]
    nodes = found = 0
    c = 0
    while c >= 0:
        row, y = cells[c]
        value = row[y] + 1
        if value == n:
            row[y] = -1
            c -= 1
            continue
        row[y] = value
        nodes += 1
        if nodes > node_budget:
            raise ResourceBudgetExceeded(nodes, found)
        for a, b in derive[c]:
            hdn[a][b] = up_inv[hup[dn[a][b]][up[b][a]]][hup[b][a]]
        for check in checks[c]:
            if not check():
                break
        else:
            if c + 1 < len(cells):
                c += 1
                continue
            found += 1
            yield SingularExtension._from_frozen(
                tuple([tuple([v + 1 for v in row]) for row in hup]),
                tuple([tuple([v + 1 for v in row]) for row in hdn]))


def enumerate_virtual_structures(bundle: StructureBundle,
                                 up_to_conjugacy: bool = False) -> list:
    """Automorphisms of the bundle, optionally one per conjugacy class
    of the automorphism group (the distinct virtual structures)."""
    autos = automorphisms(bundle)
    if not up_to_conjugacy:
        return autos
    reps = []
    seen = set()
    for a in autos:
        if a in seen:
            continue
        cls = {perm_compose(g, perm_compose(a, perm_inverse(g))) for g in autos}
        seen |= cls
        reps.append(min(cls))
    return reps

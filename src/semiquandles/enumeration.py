"""Exhaustive enumeration of semiquandles and their extensions.

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

import itertools
import math
from dataclasses import dataclass

from .algebra import (ResourceBudgetExceeded, SemiquandleTable,
                      SingularExtension, StructureBundle, check_semiquandle,
                      automorphisms, perm_compose, perm_inverse)


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


class _Blocked(Exception):
    """An axiom instance read a column of up that is not set yet."""

    def __init__(self, column: int):
        self.column = column


class _Unset:
    """Column c of up, or its inverse, before the search sets it: reading
    an entry raises _Blocked(c)."""

    __slots__ = ("column",)

    def __init__(self, column: int):
        self.column = column

    def __getitem__(self, row):
        raise _Blocked(self.column)


def _axiom_instances(n: int, up, dn) -> list:
    """Every instance of axioms i, ii.b and iii.a-c that check_semiquandle
    tests, as (column, check) with check() -> bool over the 0-based
    readers up(r, c) and dn(a, b).  column is the latest column of up
    that the instance reads whatever the entries are; the columns of its
    other reads are entries themselves.  Axiom 0 for up holds by
    construction and axiom ii.a by the derivation of dn, so neither is
    listed."""
    r = range(n)
    out = []
    for x in r:
        for y in r:
            # i: dn[x][y] == y exactly when up[y][x] == x
            out.append((x, lambda x=x, y=y:
                        (dn(x, y) == y) == (up(y, x) == x)))
            # ii.b: dn[up[x][y]][dn[y][x]] == x
            out.append((y, lambda x=x, y=y: dn(up(x, y), dn(y, x)) == x))
    for x in r:
        for y in r:
            for z in r:
                last = max(y, z)
                # iii.a: up[up[x][y]][z] == up[up[x][dn[z][y]]][up[y][z]]
                out.append((last, lambda x=x, y=y, z=z:
                            up(up(x, y), z) == up(up(x, dn(z, y)), up(y, z))))
                # iii.b: up[dn[y][x]][dn[z][up[x][y]]]
                #        == dn[up[y][z]][up[x][dn[z][y]]]
                out.append((last, lambda x=x, y=y, z=z:
                            up(dn(y, x), dn(z, up(x, y)))
                            == dn(up(y, z), up(x, dn(z, y)))))
                # iii.c: dn[dn[z][up[x][y]]][dn[y][x]] == dn[dn[z][y]][x]
                out.append((last, lambda x=x, y=y, z=z:
                            dn(dn(z, up(x, y)), dn(y, x)) == dn(dn(z, y), x)))
    return out


def _checks_hold(waiting: list, column: int) -> bool:
    """Run the checks waiting on the column just set, in order, and
    return False at the first that fails.  A check that reads a column
    still unset waits on that column instead."""
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
    if n < 1:
        raise ValueError("order must be positive")
    unset = [_Unset(c) for c in range(n)]
    cols = list(unset)      # cols[c][r] = up[r][c]
    invs = list(unset)      # invs[c][v] = the r with up[r][c] = v

    def up(r, c):
        return cols[c][r]

    def dn(a, b):
        # axiom ii: dn[a][b] is the row of column up[b][a] that holds a
        return invs[cols[a][b]][a]

    # waiting[c]: the checks to run once column c is set.  A choice for
    # column c appends only to the lists of later columns, and marks[c]
    # holds their lengths from before it, so the next choice truncates
    # them back.
    waiting = [[] for _ in range(n)]
    for column, check in _axiom_instances(n, up, dn):
        waiting[column].append(check)
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
            cols[depth] = invs[depth] = unset[depth]
            depth -= 1
            continue
        inverse = [0] * n
        for row, v in enumerate(column):
            inverse[v] = row
        cols[depth], invs[depth] = column, inverse
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
        up_rows = tuple(tuple(col[r] + 1 for col in cols) for r in range(n))
        dn_rows = tuple(tuple(dn(a, b) + 1 for b in range(n))
                        for a in range(n))
        if check_semiquandle(up_rows, dn_rows):
            continue
        table = SemiquandleTable._from_frozen(up_rows, dn_rows)
        if up_to_iso:
            key = CanonicalForm.of(table)
            if key in seen:
                continue
            seen.add(key)
        found += 1
        yield table


def _hat_search_plan(up: tuple, dn: tuple) -> tuple:
    """The hat axioms over the 0-based tables up and dn, compiled per hup cell.

    Cell x*n + y holds hup[x][y], and the flat hdn list is laid out the
    same way.  For each cell this returns the hdn entries axiom hi derives
    once the cell is set, as (entry, s, t) with
    hdn[entry] = up_inv[hup[t]][hup[s]], and every instance of hi.a, hi.b,
    hii.a, hii.b and hii.c that check_singular tests whose last hup cell
    read is this one, as a check(hup, hdn) -> bool.  An hdn read counts as
    reads of the two cells it is derived from.
    """
    n = len(up)
    r = range(n)

    def cell(x, y):
        return x * n + y

    def hdn_reads(a, b):
        # axiom hi: hdn[a][b] = up_inv[hup[dn[a][b]][up[b][a]]][hup[b][a]]
        return cell(b, a), cell(dn[a][b], up[b][a])

    derive = [[] for _ in range(n * n)]
    for a in r:
        for b in r:
            s, t = hdn_reads(a, b)
            derive[max(s, t)].append((cell(a, b), s, t))
    checks = [[] for _ in range(n * n)]

    def add(reads, check):
        checks[max(reads)].append(check)

    for x in r:
        for y in r:
            xy, yx = up[x][y], dn[y][x]
            # hi.a: hup[yx][xy] == up[hdn[y][x]][hup[x][y]]
            add((cell(yx, xy), *hdn_reads(y, x), cell(x, y)),
                lambda h, g, p=cell(yx, xy), q=cell(y, x), s=cell(x, y):
                h[p] == up[g[q]][h[s]])
            # hi.b: hdn[xy][yx] == dn[hup[x][y]][hdn[y][x]]
            add((*hdn_reads(xy, yx), cell(x, y), *hdn_reads(y, x)),
                lambda h, g, p=cell(xy, yx), q=cell(x, y), s=cell(y, x):
                g[p] == dn[h[q]][g[s]])
    for x in r:
        for y in r:
            for z in r:
                xy, yx, zy, yz = up[x][y], dn[y][x], dn[z][y], up[y][z]
                # hii.a: hup[xy][z] == up[hup[x][zy]][yz]
                add((cell(xy, z), cell(x, zy)),
                    lambda h, g, p=cell(xy, z), q=cell(x, zy), k=yz:
                    h[p] == up[h[q]][k])
                # hii.b: up[yx][hdn[z][xy]] == dn[yz][hup[x][zy]]
                add((*hdn_reads(z, xy), cell(x, zy)),
                    lambda h, g, p=cell(z, xy), q=cell(x, zy), a=yx, b=yz:
                    up[a][g[p]] == dn[b][h[q]])
                # hii.c: dn[hdn[z][xy]][yx] == hdn[zy][x]
                add((*hdn_reads(z, xy), *hdn_reads(zy, x)),
                    lambda h, g, p=cell(z, xy), k=yx, q=cell(zy, x):
                    dn[g[p]][k] == g[q])
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
    up_inv = ops["up_inv"]
    derive, checks = _hat_search_plan(ops["up"], ops["dn"])
    n = table.n
    cells = n * n
    row_starts = range(0, cells, n)
    hup = [-1] * cells
    hdn = [0] * cells
    nodes = found = 0
    c = 0
    while c >= 0:
        value = hup[c] + 1
        if value == n:
            hup[c] = -1
            c -= 1
            continue
        hup[c] = value
        nodes += 1
        if nodes > node_budget:
            raise ResourceBudgetExceeded(nodes, found)
        for entry, s, t in derive[c]:
            hdn[entry] = up_inv[hup[t]][hup[s]]
        for check in checks[c]:
            if not check(hup, hdn):
                break
        else:
            if c + 1 < cells:
                c += 1
                continue
            found += 1
            one_based = ([v + 1 for v in hup], [v + 1 for v in hdn])
            yield SingularExtension._from_frozen(
                *(tuple([tuple(flat[i:i + n]) for i in row_starts])
                  for flat in one_based))


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

"""Exhaustive enumeration of semiquandles and their extensions.

Semiquandles of order n are generated by filling the columns of the up
table with permutations (axiom 0 demands exactly that), deriving the dn
table from axiom ii, and keeping the pairs that pass the full checker.
Singular extensions are found by backtracking over the cells of hup in
row-major order, values ascending, with hdn derived from axiom hi and
each hat-axiom instance checked as soon as the last hup cell it reads is
set.  Both searches carry an explicit node budget (a full candidate pair
for semiquandles, one value tried in one hup cell for extensions);
exceeding it raises instead of truncating silently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (ResourceBudgetExceeded, SemiquandleTable,
                      SingularExtension, StructureBundle, check_semiquandle,
                      automorphisms, column_inverse, perm_compose, perm_inverse)


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


def _derive_dn(up: tuple, n: int) -> tuple:
    """dn forced by axiom ii: dn[x][y] is the up-column preimage of x at
    column up[y][x].  The columns of up are permutations by construction."""
    up_inv = column_inverse(up)
    return tuple(tuple(up_inv[x][up[y][x] - 1] for y in range(n))
                 for x in range(n))


def enumerate_semiquandles(n: int, up_to_iso: bool = False,
                           node_budget: int = 10_000_000):
    """Yield every semiquandle of order n in deterministic order.

    Candidates are tuples of up-columns ranging over permutations; each
    candidate counts as one node against the budget.  With up_to_iso,
    one representative per isomorphism class is yielded (the first in
    enumeration order).
    """
    if n < 1:
        raise ValueError("order must be positive")
    perms = list(itertools.permutations(range(1, n + 1)))
    nodes = 0
    found = 0
    seen = set()
    for columns in itertools.product(perms, repeat=n):
        nodes += 1
        if nodes > node_budget:
            raise ResourceBudgetExceeded(nodes, found)
        up = tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))
        dn = _derive_dn(up, n)
        if check_semiquandle(up, dn):
            continue
        table = SemiquandleTable(up, dn)
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

"""Exhaustive enumeration of semiquandles and their extensions.

Semiquandles of order n are generated by filling the columns of the up
table with permutations (axiom 0 demands exactly that), deriving the dn
table from axiom ii, and keeping the pairs that pass the full checker.
Singular extensions are generated from hup candidates with hdn derived
from axiom hi.  Both searches carry an explicit node budget; exceeding
it raises instead of truncating silently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (SemiquandleTable, SingularExtension, StructureBundle,
                      check_semiquandle, check_singular, automorphisms,
                      column_inverse, perm_compose, perm_inverse)


class ResourceBudgetExceeded(RuntimeError):
    """Search node budget exhausted; carries the partial progress made."""

    def __init__(self, nodes: int, found: int):
        self.nodes = nodes
        self.found = found
        super().__init__(f"budget exceeded after {nodes} nodes ({found} structures found)")


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


def _derive_hdn(table: SemiquandleTable, up_inv: tuple, hup: tuple) -> tuple:
    """hdn forced by axiom hi: up(hdn(y,x), hup(x,y)) = hup(dn(y,x), up(x,y)),
    solved through up_inv, the column inverse of the table's up."""
    n = table.n
    up, dn = table.up, table.dn
    hdn = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            target = hup[dn[y][x] - 1][up[x][y] - 1]
            hdn[y][x] = up_inv[target - 1][hup[x][y] - 1]
    return tuple(tuple(row) for row in hdn)


def enumerate_singular_extensions(table: SemiquandleTable,
                                  node_budget: int = 10_000_000):
    """Yield every compatible singular extension of the table.

    Ranges over all hup candidates with hdn derived from axiom hi, then
    filters by the full singular checker; n^(n^2) candidates, practical
    for n <= 3 and budget-guarded beyond.
    """
    n = table.n
    up_inv = column_inverse(table.up)
    nodes = 0
    found = 0
    values = range(1, n + 1)
    for flat in itertools.product(values, repeat=n * n):
        nodes += 1
        if nodes > node_budget:
            raise ResourceBudgetExceeded(nodes, found)
        hup = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        hdn = _derive_hdn(table, up_inv, hup)
        if check_singular(table.up, table.dn, hup, hdn):
            continue
        found += 1
        yield SingularExtension(hup, hdn)


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

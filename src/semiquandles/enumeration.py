"""Exhaustive enumeration of semiquandles and their extensions.

Both searches check the axiom catalog of `algebra`, the one place each
axiom is written.  One generator compiles each predicate into a Python
function by evaluating it once over symbolic tables, and each search
gives it a hook that says what a read and a comparison become there.
Semiquandles of order n are found by a depth-first search that sets the
columns of the up table to permutations (axiom 0 demands exactly that),
reads dn through axiom ii.a from the column inverses of up, and checks
every other instance on up and its inverses, which hold a padding value
where an entry is not known yet, from the column its reads derive on; of
each survivor it checks only that the columns of dn are permutations.
Singular extensions are found by backtracking over the cells of hup in
row-major order, values ascending, with hdn derived from axiom hi.a.
Each instance of the other hat axioms becomes a comparison of two
entries of constant matrices read at one flat state; it is dropped when
it reads at most two cells and holds at every value of them, else
checked as soon as the last hup cell it reads is set.  Both searches
build what they yield without the checks of the public constructors, and
carry an explicit node budget (one candidate column tuple for
semiquandles, a pruned block counting one per candidate in it; one value
tried in one hup cell for extensions); exceeding it raises instead of
truncating silently.  Up to isomorphism, the column search keeps only
the first table of each class in its order: it prunes a block once
column 0 is later than the least conjugate some relabeling makes of a
set column, and tests each leaf against every relabeling.  A block
pruned so counts one node per candidate too, so the budget stops where
the labeled search with a dedup at its leaves stops.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .algebra import (_FLAT_AXIOMS, _HAT_AXIOMS, ResourceBudgetExceeded,
                      SemiquandleTable, SingularExtension, _relabeled, _zero_based)

# enumerate_semiquandles builds 3n^3 + 2n^2 axiom checks before its first node
MAX_ORDER = 16


class CanonicalForm(NamedTuple):
    """Lexicographically least simultaneous relabeling of a table pair,
    as 0-based tables.

    Two structures are isomorphic exactly when their canonical forms are
    equal; computed by minimum over all n! relabelings, which is fine at
    the orders this package targets.
    """

    up: tuple
    dn: tuple

    @classmethod
    def of(cls, table: SemiquandleTable) -> "CanonicalForm":
        up, dn = _zero_based(table.up), _zero_based(table.dn)
        return cls(*min((_relabeled(up, phi), _relabeled(dn, phi))
                        for phi in itertools.permutations(range(table.n))))


def _least_conjugate(p: tuple, j: int) -> tuple:
    """The least psi∘p∘psi⁻¹ over the relabelings psi with psi(j) = 0,
    which is where psi moves column j of up when p is that column: j's
    cycle on 0 -> 1 -> ... -> L-1 -> 0, then the other cycles of p, each
    on the next labels in turn, shortest first."""
    lengths, seen = [], [False] * len(p)
    for x in (j, *range(len(p))):
        length = 0
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length:
            lengths.append(length)
    lengths[1:] = sorted(lengths[1:])
    least, start = [], 0
    for length in lengths:
        least += range(start + 1, start + length)
        least.append(start)
        start += length
    return tuple(least)


def _first_of_class(columns: list) -> bool:
    """Whether no relabeling psi gives an earlier tuple of the columns of
    up, psi moving column j to psi(j) as psi∘columns[j]∘psi⁻¹: the
    relabelings are tried lazily, each only up to its first column that
    differs."""
    n = len(columns)
    inv = [0] * n
    for psi in itertools.permutations(range(n)):
        for x, image in enumerate(psi):
            inv[image] = x
        for k in range(n):
            column = columns[inv[k]]
            moved = tuple(psi[column[inv[i]]] for i in range(n))
            if moved != columns[k]:
                if moved < columns[k]:
                    return False
                break
    return True


def _instances(axioms, n: int, derived: str):
    """Yield (holds, witness) for every instance at order n of the
    catalog entries but the one named derived, witnesses 0-based: the
    pairs, then the triples, each in product order, entries in catalog
    order."""
    for arity in (2, 3):
        entries = [holds for name, a, holds in axioms if a == arity and name != derived]
        for witness in itertools.product(range(n), repeat=arity):
            for holds in entries:
                yield holds, witness


class _Term:
    """A value of an axiom at compile time: the source text of an
    expression of the generated check, and the kind the search's hook
    knows it by.  Comparing two is the hook's too: hook(None, a, b)
    gives the term of a == b."""

    __slots__ = ("hook", "text", "kind")

    def __init__(self, hook, text: str, kind: str = "c"):
        self.hook, self.text, self.kind = hook, text, kind

    def __eq__(self, other):
        return self.hook(None, self, other)


class _Table:
    """A table of an axiom at compile time, or one row of it: the entry
    t[a][b] is the term hook(t, a, b)."""

    __slots__ = ("hook", "name", "row")

    def __init__(self, hook, name: str, row=None):
        self.hook, self.name, self.row = hook, name, row

    def __getitem__(self, key):
        if self.row is None:
            return _Table(self.hook, self.name, key)
        return self.hook(self.name, self.row, key)


def _generated(holds, arity: int, head: str, tables, hook, lines: dict, guard=tuple):
    """The axiom holds(*tables, *witness) as one generated function
    check(<head>, *witness), written by evaluating holds once over
    _Table and _Term with the search's hook.  The hook adds each
    expression the function computes first to lines, mapped to the
    local that holds it; guard() gives the source lines that follow."""
    witness = [_Term(hook, v) for v in "xyz"[:arity]]
    test = holds(*(_Table(hook, t) for t in tables), *witness)
    source = [f"def check({head}, {', '.join(w.text for w in witness)}):",
              *(f"    {v} = {expr}" for expr, v in lines.items()),
              *guard(), f"    return {test.text}"]
    scope = {}
    exec("\n".join(source), scope)
    return scope["check"]


@functools.cache
def _column_check(holds, arity: int):
    """The flat axiom holds(up, dn, *witness) as one generated function
    of (up, invs, u, *witness) over the table up and its column inverses
    invs (invs[c][v] = the r with up[r][c] = v), padded with an unknown
    value u, and the witness positions that index a column of up it reads.
    dn is read through axiom ii.a: dn[a][b] is invs[up[b][a]][a].  The
    function gives None when a read is u, else whether the instance holds.
    Row u and column u of up, row u of invs and column u of each of its
    rows hold u, so an unknown read makes every read that uses it u too:
    only the reads no other read uses are tested.  The instance reads u
    until the largest witness value at those positions is a set column,
    where the search files it."""
    lines, used, columns = {}, set(), set()

    def read(t, a, b):
        if t is None:
            return _Term(read, f"({a.text} == {b.text})")
        if t == "dn":
            t, a, b = "invs", read("up", b, a), a
        else:
            columns.add(b.text)
        used.update((a.text, b.text))
        return _Term(read, lines.setdefault(f"{t}[{a.text}][{b.text}]", f"r{len(lines)}"))

    def guard():
        outer = " or ".join(f"{v} == u" for v in lines.values() if v not in used)
        return f"    if {outer}:", "        return None"
    check = _generated(holds, arity, "up, invs, u", ("up", "dn"), read, lines, guard)
    return check, tuple(k for k, v in enumerate("xyz"[:arity]) if v in columns)


def enumerate_semiquandles(n: int, up_to_iso: bool = False,
                           node_budget: int = 10_000_000):
    """Yield every semiquandle of order n in deterministic order.

    A depth-first search sets the columns of up in order, each to the
    permutations in itertools.permutations order, so tables come out in
    the order of a product over all candidate column tuples.  Its only
    state is up and up's column inverses: dn[a][b] is read through axiom
    ii.a as the row of column up[b][a] that holds a.  Each instance of the
    axioms is checked once every entry it reads is known, and a failing
    one prunes every candidate below the column just set.  A candidate
    that reaches the last column has passed every instance and ii.a, so
    it is kept when the columns of dn are permutations (axiom 0).  One
    node is one candidate column tuple, counted whether it is checked or
    pruned with its block, so the budget is exceeded at the same
    candidate, with the same tables yielded, as when every candidate is
    checked; order 5 needs (5!)^5 nodes for its 2,640 tables.

    With up_to_iso, the first table of each isomorphism class in that
    order is yielded.  A relabeling psi carries column j of up to
    position psi(j) as psi∘col_j∘psi⁻¹, so once column c is set and
    column 0 is later than _least_conjugate(col_c, c), every table
    below has an earlier isomorph.  That block is pruned and counted as
    one node per candidate, like a block an axiom prunes, so the budget
    stops at the same candidate, with the same tables yielded, as a
    dedup of the labeled search would.  A leaf is kept when no
    relabeling gives an earlier tuple of columns (_first_of_class), so
    no state is kept per class.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be from 1 to {MAX_ORDER}, got {n}")
    # up and its column inverses as 0-based tables padded with the value
    # n: an entry not known yet holds n, and so do row n and column n, so
    # a read at an unknown value is unknown too
    up = [[n] * (n + 1) for _ in range(n + 1)]
    unknown = [n] * (n + 1)
    invs = [unknown] * (n + 1)      # invs[c][v] = the r with up[r][c] = v
    # filed[c]: the instances _column_check files under column c
    filed = [[] for _ in range(n)]
    for axiom, w in _instances(_FLAT_AXIOMS, n, "ii.a"):
        check, columns = _column_check(axiom, len(w))
        filed[max(w[k] for k in columns)].append(functools.partial(check, up, invs, n, *w))
    below = [math.factorial(n) ** (n - 1 - c) for c in range(n)]
    cols = [None] * n       # cols[c]: column c of up, once set
    nodes = found = 0

    def search(c, pending):
        # set column c to each permutation and run the pending checks:
        # those filed under c, then those still unknown above it, retried
        # at the next column; all is known after the last column
        nonlocal nodes, found
        for column in itertools.permutations(range(n)):
            cols[c] = column
            inverse = list(unknown)
            for row, v in enumerate(column):
                inverse[v] = row
                up[row][c] = v
            invs[c] = inverse
            holds, retried = True, []
            for check in pending:
                held = check()
                if held is None:
                    retried.append(check)
                elif not held:
                    holds = False
                    break
            else:
                # a relabeling with psi(c) = 0 makes column 0 the least
                # conjugate of column c: if that is earlier, so is a
                # relabeling of every table below
                holds = not (up_to_iso and cols[0] > _least_conjugate(column, c))
            if holds and c + 1 < n:
                yield from search(c + 1, filed[c + 1] + retried)
                continue
            nodes += below[c]
            if nodes > node_budget:
                # counting one candidate at a time passes the budget at
                # this candidate, and a pruned block yields nothing
                raise ResourceBudgetExceeded(max(node_budget, 0) + 1, found)
            if not holds:
                continue
            dn = tuple(tuple(invs[up[b][a]][a] + 1 for b in range(n)) for a in range(n))
            # axiom 0 for dn is the one left: up's holds by construction,
            # ii.a by the derivation of dn, and every other instance has held
            if any(len(set(column)) < n for column in zip(*dn)):
                continue
            if up_to_iso and not _first_of_class(cols):
                continue
            up_rows = tuple(tuple(v + 1 for v in row[:n]) for row in up[:n])
            found += 1
            yield tuple.__new__(SemiquandleTable, (up_rows, dn))
        for row in up:
            row[c] = n
        invs[c] = unknown

    yield from search(0, filed[0])


def _padded(t) -> tuple:
    """The 0-based table t as a 1-based matrix with a leading row and
    column of zeros, so that it is indexed by values of h."""
    n = len(t)
    return ((0,) * (n + 1),) + tuple((0,) + tuple(v + 1 for v in row) for row in t)


@functools.cache
def _hat_check(holds, arity: int):
    """The hat axiom holds(up, dn, hup, hdn, *witness) as one generated
    function of (*_hat_env(up, dn), *witness) that gives the instance's
    check (L, a1, a2, R, b1, b2).  A term is a constant of up and dn (kind
    "c"), the place i in h of a hat entry ("h"), or a side (M, i, j) of a
    check, the value M[h[i]][h[j]] ("s"); a hat entry h[i] is the side
    (first, i, i).  hup and hdn are read at constants only, so what a
    check reads is known from up and dn alone.  up or dn read at a hat
    entry is a side of a constant matrix of the table: t_cols[a] (values
    t[a][h - 1]), t_rows[b] (t[h - 1][b]) or t_pad (t[h - 1][h' - 1])."""
    lines = {}

    def side(term):
        if term.kind == "c":
            raise TypeError("a hat axiom compares values of the extension only")
        return term.text if term.kind == "s" else f"first, {term.text}, {term.text}"

    def read(t, a, b):
        if t is None:
            return _Term(read, f"({side(a)}, {side(b)})", "check")
        hat = t in ("hup", "hdn")
        if {a.kind, b.kind} - ({"c"} if hat else {"c", "h"}):
            raise TypeError(f"{t} read at a value of the extension")
        if hat:
            place = f"{a.text} * n + {b.text}" + (" + n * n" if t == "hdn" else "")
            return _Term(read, lines.setdefault(place, f"v{len(lines)}"), "h")
        if a.kind == b.kind == "c":
            return _Term(read, lines.setdefault(f"{t}[{a.text}][{b.text}]", f"v{len(lines)}"))
        if a.kind == "c":
            return _Term(read, f"{t}_cols[{a.text}], {b.text}, {b.text}", "s")
        if b.kind == "c":
            return _Term(read, f"{t}_rows[{b.text}], {a.text}, {a.text}", "s")
        return _Term(read, f"{t}_pad, {a.text}, {b.text}", "s")
    return _generated(holds, arity, "up, dn, n, first, up_cols, up_rows, up_pad, "
                      "dn_cols, dn_rows, dn_pad", ("up", "dn", "hup", "hdn"), read, lines)


def _hat_env(up: tuple, dn: tuple) -> tuple:
    """The arguments, before the witness, of the _hat_check functions over
    the 0-based tables up and dn.  first, t_cols[a] and t_rows[b] read
    one hat entry: each is M[h][h'] = vec[h] for a vector vec (0..n, row
    a + 1 of t_pad, column b + 1 of t_pad), built once per vec, so that
    equal matrices are one object and the sides of a check compare by
    identity."""
    size = len(up) + 1
    matrices = {}

    def matrix(vec):
        m = matrices.get(vec)
        if m is None:
            m = matrices[vec] = tuple((v,) * size for v in vec)
        return m
    env = [up, dn, size - 1, matrix(tuple(range(size)))]
    for t in (up, dn):
        pad = _padded(t)
        env += [[matrix(row) for row in pad[1:]], [matrix(col) for col in zip(*pad)][1:], pad]
    return tuple(env)


def _hat_search_plan(up: tuple, dn: tuple) -> tuple:
    """The hat search over the 0-based tables up, dn, filed per hup cell.

    The search sets hup[x][y] at step x*n + y, and derives hdn[a][b] once
    the two hup cells of axiom hi.a are set.  For each step this returns
    the derivations (t, M, i, j), setting h[t] = M[h[i]][h[j]]; the checks
    whose last cell read is set there, each holding iff
    L[h[a1]][h[a2]] == R[h[b1]][h[b2]]; and the rows (k, span) finished
    there, row k of hup (k < n) or hdn being h[span].  Each instance is
    compiled by the generated function of its axiom.  Duplicate checks
    are dropped, and so is each check that reads at most two hup cells
    and holds at every value of them (an hdn entry read counts as the two
    cells it is derived from), since it could never prune.  The proof
    sets those cells to each value on a scratch h as the search does,
    deriving hdn through the same derivations, and tests the check
    itself.  A check of two equal sides is one of them.
    """
    n = len(up)
    cells = n * n
    r = range(n)
    up_inv = [[0] * n for _ in r]       # up_inv[up[x][y]][y] = x (axiom 0)
    for x, y in itertools.product(r, r):
        up_inv[up[x][y]][y] = x
    # axiom hi.a: hdn[a][b] = up_inv[hup[dn[a][b]][up[b][a]]][hup[b][a]]
    sources = [(dn[a][b] * n + up[b][a], b * n + a) for a in r for b in r]
    # reads[i]: the hup cells h[i] is read from
    reads = [*({i} for i in range(cells)), *({i, j} for i, j in sources)]
    derive = [[] for _ in range(cells)]
    inverse = _padded(up_inv)
    for t, (i, j) in enumerate(sources, cells):
        derive[max(i, j)].append((t, inverse, i, j))
    env = _hat_env(up, dn)
    checks = [[] for _ in range(cells)]
    seen = set()
    h = [0] * (2 * cells)       # a scratch state of the search

    def holds_throughout(check, read):
        # set the first cell read to each value as the search does,
        # deriving hdn, then the others
        c, rest = read[0], read[1:]
        left, a1, a2, right, b1, b2 = check
        for h[c] in range(1, n + 1):
            for t, m, i, j in derive[c]:
                h[t] = m[h[i]][h[j]]
            if not (holds_throughout(check, rest) if rest else
                    left[h[a1]][h[a2]] == right[h[b1]][h[b2]]):
                return False
        return True
    for axiom, w in _instances(_HAT_AXIOMS, n, "hi.a"):
        left, a1, a2, right, b1, b2 = check = _hat_check(axiom, len(w))(*env, *w)
        key = (id(left), a1, a2, id(right), b1, b2)
        if key in seen:
            continue
        seen.add(key)
        read = sorted(reads[a1] | reads[a2] | reads[b1] | reads[b2])
        if len(read) > 2 or not holds_throughout(check, read):
            checks[read[-1]].append(check)
    finish = [[] for _ in range(cells)]
    for k in range(2 * n):
        span = slice(k * n, k * n + n)
        finish[max(map(max, reads[span]))].append((k, span))
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
    n = table.n
    derive, checks, finish = _hat_search_plan(_zero_based(table.up), _zero_based(table.dn))
    h = [0] * (2 * n * n)
    hup, hdn = [None] * n, [None] * n
    finish = [[(hdn if k >= n else hup, k % n, span) for k, span in cell] for cell in finish]
    last = n * n - 1
    # the leaves are proved: built without the constructor's copy
    new = tuple.__new__
    nodes = found = 0
    c = 0
    while c >= 0:
        value = h[c] + 1
        if value > n:
            h[c] = 0
            c -= 1
            continue
        nodes += 1
        if nodes > node_budget:
            raise ResourceBudgetExceeded(nodes, found)
        h[c] = value
        for t, m, i, j in derive[c]:
            h[t] = m[h[i]][h[j]]
        for left, a1, a2, right, b1, b2 in checks[c]:
            if left[h[a1]][h[a2]] != right[h[b1]][h[b2]]:
                break
        else:
            for rows, k, span in finish[c]:
                rows[k] = tuple(h[span])
            if c < last:
                c += 1
            else:
                found += 1
                yield new(SingularExtension, (tuple(hup), tuple(hdn)))


"""Exhaustive enumeration of semiquandles and their extensions.

Both searches check the axiom catalog of `algebra`, the one place each
axiom is written, by compiling its predicates through one symbolic
evaluation.  Semiquandles of order n are found by a depth-first search
that sets the columns of the up table to permutations (axiom 0 demands
exactly that), keeps the dn table read through axiom ii, checks each
axiom instance on the partial tables as soon as every entry it reads is
known, and of each survivor checks only that the columns of dn are
permutations, the one axiom not yet proved.  Each axiom is one generated
function, over tables that hold a padding value where an entry is not
known yet.  Both searches build what they yield without the checks of
the public constructors.
Singular extensions are found by backtracking over the cells of hup in
row-major order, values ascending, with hdn derived from axiom hi.a.
Each instance of the other hat axioms is compiled once, by evaluating
its predicate over symbolic tables, into a comparison of two entries of
constant matrices read at entries of one flat state.  A check that
reads at most two cells and holds at every value of them is dropped;
every other is checked in one loop as soon as the last hup cell it reads
is set.  Both searches carry an explicit node budget (one candidate
column tuple for semiquandles, a pruned block counting one per candidate
in it; one value tried in one hup cell for extensions); exceeding it
raises instead of truncating silently.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .algebra import (_FLAT_AXIOMS, _HAT_AXIOMS, ResourceBudgetExceeded,
                      SemiquandleTable, SingularExtension, StructureBundle,
                      _relabeled, _trusted, _zero_based, automorphisms)

# enumerate_semiquandles builds 3n^3 + 2n^2 axiom checks before its first node
MAX_ORDER = 16


@dataclass(frozen=True)
class CanonicalForm:
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


def _instances(axioms, n: int):
    """Yield (wait, holds, witness) for every instance of the catalog
    entries at order n, witnesses 0-based: the pairs, then the triples,
    each in product order with the entries in catalog order."""
    for arity in (2, 3):
        entries = [e for e in axioms if e[1] == arity]
        for witness in itertools.product(range(n), repeat=arity):
            for _, _, wait, holds in entries:
                yield wait, holds, witness


class _Term:
    """A value of a flat axiom at compile time: the source text of an
    expression over the witness and the locals of the generated check.
    Comparing two gives the text of the comparison."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __eq__(self, other):
        return _Term(f"({self.text} == {other.text})")

    __hash__ = None


class _TermTable:
    """up or dn at compile time, or one row of it: reading an entry adds
    the line that reads it to the generated check, once per distinct
    read, and gives the local that holds it.  used collects the locals
    read as an index."""

    __slots__ = ("reads", "used", "name", "row")

    def __init__(self, reads: dict, used: set, name: str, row=None):
        self.reads, self.used, self.name, self.row = reads, used, name, row

    def __getitem__(self, key):
        if self.row is None:
            return _TermTable(self.reads, self.used, self.name, key)
        self.used.update((self.row.text, key.text))
        read = f"{self.name}[{self.row.text}][{key.text}]"
        return _Term(self.reads.setdefault(read, f"r{len(self.reads)}"))


@functools.cache
def _column_check(holds, arity: int):
    """The flat axiom holds(up, dn, *witness) as one generated function
    of (up, dn, u, *witness), over tables padded with an unknown value u:
    it returns None when an entry it reads is u, else whether the
    instance holds.  One evaluation over _TermTable lists the reads; since
    row u and column u of both tables hold u in every entry, an unknown
    read makes every read that uses it u too, so only the reads no other
    read uses are tested."""
    reads, used = {}, set()
    witness = [_Term(v) for v in "xyz"[:arity]]
    test = holds(_TermTable(reads, used, "up"), _TermTable(reads, used, "dn"), *witness)
    outer = " or ".join(f"{v} == u" for v in reads.values() if v not in used)
    lines = [f"def check(up, dn, u, {', '.join(w.text for w in witness)}):",
             *(f"    {v} = {read}" for read, v in reads.items()),
             f"    if {outer}:", "        return None", f"    return {test.text}"]
    scope = {}
    exec("\n".join(lines), scope)
    return scope["check"]


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
    # up, dn and the column inverses of up as 0-based tables padded with
    # the value n: an entry not known yet holds n, and so do row n and
    # column n, so a read at an unknown value is unknown too
    up = [[n] * (n + 1) for _ in range(n + 1)]
    dn = [[n] * (n + 1) for _ in range(n + 1)]
    unknown = [n] * (n + 1)
    invs = [unknown] * (n + 1)      # invs[c][v] = the r with up[r][c] = v

    # waiting[c]: the checks to run once column c is set, each an axiom
    # instance of the catalog first filed under its wait column and, while
    # it reads an unknown entry, retried at the next column.  The choices
    # for column c append only to waiting[c + 1], and marks[c] holds its
    # length from before them, so each choice, and the way back from c,
    # truncates it back.  waiting[n] stays empty: every entry is known
    # once the last column is set.
    waiting = [[] for _ in range(n + 1)]
    for wait, axiom, w in _instances(_FLAT_AXIOMS, n):
        if wait is not None:
            check = _column_check(axiom, len(w))
            waiting[max(w[k] for k in wait)].append(
                functools.partial(check, up, dn, n, *w))
    # hooks[c]: the entries (a, b) of dn with a < c and up[b][a] == c,
    # known once column c is set
    hooks = [[] for _ in range(n)]
    below = [math.factorial(n) ** (n - 1 - c) for c in range(n)]
    choices = [None] * n
    marks = [None] * n
    nodes = found = 0
    seen = set()
    depth = 0
    choices[0] = itertools.permutations(range(n))
    marks[0] = len(waiting[1])
    while depth >= 0:
        column = next(choices[depth], None)
        later = waiting[depth + 1]
        del later[marks[depth]:]
        if column is None:
            for row in up:
                row[depth] = n
            for a, b in hooks[depth]:
                dn[a][b] = n
            dn[depth] = list(unknown)
            invs[depth] = unknown
            depth -= 1
            continue
        inverse = list(unknown)
        for row, v in enumerate(column):
            inverse[v] = row
            up[row][depth] = v
        invs[depth] = inverse
        for a, b in hooks[depth]:
            dn[a][b] = inverse[a]
        dn[depth][:n] = [invs[v][depth] for v in column]
        holds = True
        for check in waiting[depth]:
            held = check()
            if held is None:
                later.append(check)
            elif not held:
                holds = False
                break
        if holds and depth + 1 < n:
            depth += 1
            hooks[depth] = [(a, b) for a in range(depth) for b in range(n)
                            if up[b][a] == depth]
            choices[depth] = itertools.permutations(range(n))
            marks[depth] = len(waiting[depth + 1])
            continue
        nodes += below[depth]
        if nodes > node_budget:
            # counting one candidate at a time passes the budget at
            # this candidate, and a pruned block yields nothing
            raise ResourceBudgetExceeded(max(node_budget, 0) + 1, found)
        if not holds:
            continue
        dn_rows = tuple(tuple(v + 1 for v in row[:n]) for row in dn[:n])
        # axiom 0 for dn is the one left: up's holds by construction, ii.a
        # by the derivation of dn, and every other instance has held
        if any(len(set(column)) < n for column in zip(*dn_rows)):
            continue
        up_rows = tuple(tuple(v + 1 for v in row[:n]) for row in up[:n])
        table = _trusted(SemiquandleTable, up=up_rows, dn=dn_rows)
        if up_to_iso:
            key = CanonicalForm.of(table)
            if key in seen:
                continue
            seen.add(key)
        found += 1
        yield table


def _padded(t) -> tuple:
    """The 0-based table t as a 1-based matrix with a leading row and
    column of zeros, so that it is indexed by values of h."""
    n = len(t)
    return ((0,) * (n + 1),) + tuple((0,) + tuple(v + 1 for v in row) for row in t)


class _HatTerm:
    """A value of a hat axiom at compile time, as source text: a constant
    of up and dn (kind "c"), the place i in h of a hat entry ("h"), or a
    side (M, i, j) of a check, the value M[h[i]][h[j]] ("s").  Comparing
    two hat values gives the text of the check (L, a1, a2, R, b1, b2); a
    hat entry h[i] is the side (first, i, i)."""

    __slots__ = ("kind", "text")

    def __init__(self, kind: str, text: str):
        self.kind, self.text = kind, text

    def side(self) -> str:
        if self.kind == "c":
            raise TypeError("a hat axiom compares values of the extension only")
        return self.text if self.kind == "s" else f"first, {self.text}, {self.text}"

    def __eq__(self, other):
        return _HatTerm("check", f"({self.side()}, {other.side()})")

    __hash__ = None


class _HatTable:
    """up, dn, hup or hdn at compile time, or one row of it.  A read of
    up or dn at two constants is a constant; one at a hat entry is the
    side of a constant matrix of the table: t_cols[a] (the values
    t[a][h - 1]), t_rows[b] (t[h - 1][b]) or t_pad (t[h - 1][h' - 1]).
    hup and hdn are read at constants only.  Each constant and each place
    in h is computed once, into a local of the generated function: lines
    maps its expression to the local."""

    __slots__ = ("lines", "name", "row")

    def __init__(self, lines: dict, name: str, row=None):
        self.lines, self.name, self.row = lines, name, row

    def __getitem__(self, key):
        if self.row is None:
            return _HatTable(self.lines, self.name, key)
        a, b, t = self.row, key, self.name
        hat = t in ("hup", "hdn")
        if {a.kind, b.kind} - ({"c"} if hat else {"c", "h"}):
            raise TypeError(f"{t} read at a value of the extension")
        if hat:
            place = f"{a.text} * n + {b.text}" + (" + n * n" if t == "hdn" else "")
            return _HatTerm("h", self.lines.setdefault(place, f"v{len(self.lines)}"))
        if a.kind == b.kind == "c":
            read = f"{t}[{a.text}][{b.text}]"
            return _HatTerm("c", self.lines.setdefault(read, f"v{len(self.lines)}"))
        if a.kind == "c":
            return _HatTerm("s", f"{t}_cols[{a.text}], {b.text}, {b.text}")
        if b.kind == "c":
            return _HatTerm("s", f"{t}_rows[{b.text}], {a.text}, {a.text}")
        return _HatTerm("s", f"{t}_pad, {a.text}, {b.text}")


_HAT_ENV = "up, dn, n, first, up_cols, up_rows, up_pad, dn_cols, dn_rows, dn_pad"


@functools.cache
def _hat_check(holds, arity: int):
    """The hat axiom holds(up, dn, hup, hdn, *witness) as one generated
    function of (*_hat_env(up, dn), *witness) that gives the check of the
    instance.  One evaluation over _HatTable writes it: a hat entry is
    only read at up and dn values, so the places it reads in h, and the
    matrices it reads there, are known from up and dn alone."""
    lines = {}
    witness = [_HatTerm("c", v) for v in "xyz"[:arity]]
    test = holds(*(_HatTable(lines, t) for t in ("up", "dn", "hup", "hdn")), *witness)
    source = [f"def check({_HAT_ENV}, {', '.join(w.text for w in witness)}):",
              *(f"    {v} = {expr}" for expr, v in lines.items()), f"    return {test.text}"]
    scope = {}
    exec("\n".join(source), scope)
    return scope["check"]


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
    pads = []
    for t in (up, dn):
        pad = _padded(t)
        pad = pads[0] if pads and pads[0] == pad else pad
        pads.append(pad)
        env += [[matrix(row) for row in pad[1:]], [matrix(col) for col in zip(*pad)][1:], pad]
    return tuple(env)


def _hat_search_plan(up: tuple, dn: tuple, up_inv: tuple) -> tuple:
    """The hat search over the 0-based tables up, dn, filed per hup cell.

    The search sets hup[x][y] at step x*n + y, and derives hdn[a][b] once
    the two hup cells of axiom hi.a are set.  For each step this returns
    the derivations (t, M, i, j), setting h[t] = M[h[i]][h[j]]; the checks
    whose last cell read is set there, each holding iff
    L[h[a1]][h[a2]] == R[h[b1]][h[b2]]; and the rows (k, span) finished
    there, row k of hup (k < n) or hdn being h[span].  Each instance is
    compiled by the generated function of its axiom.  Duplicate checks
    and checks of two equal sides are dropped, and so is each check that
    reads at most two hup cells and holds at every value of them (an hdn
    entry read counts as the two cells it is derived from): trying each
    value proves it, and it could never prune.
    """
    n = len(up)
    cells = n * n
    r = range(n)
    # axiom hi.a: hdn[a][b] = up_inv[hup[dn[a][b]][up[b][a]]][hup[b][a]]
    sources = [(dn[a][b] * n + up[b][a], b * n + a) for a in r for b in r]
    # bit c of reads[i] is set when h[i] is read from hup cell c
    reads = [*(1 << i for i in range(cells)), *((1 << i) | (1 << j) for i, j in sources)]
    derive = [[] for _ in range(cells)]
    inverse = _padded(up_inv)
    for t, (i, j) in enumerate(sources, cells):
        derive[max(i, j)].append((t, inverse, i, j))
    env = _hat_env(up, dn)
    compiled = {holds: _hat_check(holds, arity) for _, arity, wait, holds in _HAT_AXIOMS
                if wait is not None}
    checks = [[] for _ in range(cells)]
    seen = set()
    # values[read][i]: the values h[i] takes as the one or two cells of
    # read take every value, in product order
    values = {}
    one = range(1, n + 1)
    two = [*zip(*itertools.product(one, repeat=2))]
    for wait, axiom, w in _instances(_HAT_AXIOMS, n):
        if wait is None:
            continue
        left, a1, a2, right, b1, b2 = check = compiled[axiom](*env, *w)
        key = (id(left), a1, a2, id(right), b1, b2)
        if key in seen or left is right and a1 == b1 and a2 == b2:
            continue
        seen.add(key)
        read = reads[a1] | reads[a2] | reads[b1] | reads[b2]
        rest = read & (read - 1)        # read without its first cell
        if not rest & (rest - 1):       # so at most two cells
            at = values.get(read)
            if at is None:
                c = (read ^ rest).bit_length() - 1
                at = values[read] = ({c: one} if not rest else
                                     {c: two[0], rest.bit_length() - 1: two[1]})
            for i in (a1, a2, b1, b2):
                if i not in at:
                    p, q = sources[i - cells]
                    at[i] = [inverse[x][y] for x, y in zip(at[p], at[q])]
            x, y, u, v = at[a1], at[a2], at[b1], at[b2]
            for k in range(len(x)):
                if left[x[k]][y[k]] != right[u[k]][v[k]]:
                    break
            else:
                continue
        checks[read.bit_length() - 1].append(check)
    finish = [[] for _ in range(cells)]
    for k in range(2 * n):
        span = slice(k * n, k * n + n)
        finish[max(reads[span]).bit_length() - 1].append((k, span))
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
    counted against the budget.  The n values of the last cell are tried
    in one loop while the budget holds at least n more nodes, and one at
    a time otherwise, so that the budget stops the search at the same
    node either way.
    """
    ops = StructureBundle(table).ops
    n = table.n
    derive, checks, finish = _hat_search_plan(ops["up"], ops["dn"], ops["up_inv"])
    h = [0] * (2 * n * n)
    hup, hdn = [None] * n, [None] * n
    finish = [[(hdn if k >= n else hup, k % n, span) for k, span in cell] for cell in finish]
    last = n * n - 1
    values = range(1, n + 1)
    # the leaves are proved: build them as _trusted does, without its
    # keyword dict
    new, setfield = object.__new__, object.__setattr__
    nodes = found = 0
    c = 0
    while c >= 0:
        if c == last and not h[c] and nodes + n <= node_budget:
            # every value of the last cell, in one loop
            tries = values
            nodes += n
        else:
            value = h[c] + 1
            if value > n:
                h[c] = 0
                c -= 1
                continue
            nodes += 1
            if nodes > node_budget:
                raise ResourceBudgetExceeded(nodes, found)
            tries = (value,)
        for value in tries:
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
                    c += 1      # tries held one value
                else:
                    found += 1
                    leaf = new(SingularExtension)
                    setfield(leaf, "hup", tuple(hup))
                    setfield(leaf, "hdn", tuple(hdn))
                    yield leaf
        if tries is values:
            h[c] = 0
            c -= 1


def enumerate_virtual_structures(bundle: StructureBundle,
                                 node_budget: int = 100_000) -> list:
    """The distinct virtual structures of the bundle: the least member of
    each conjugacy class of its automorphism group, sorted.  Conjugating
    a by g relabels a along g.  The automorphisms come sorted, so the
    first of a class met is its least, and each class is listed once:
    taking the least over the group for every member instead costs
    |Aut|^2 relabelings, 25 million on the order-7 projection table.
    The budget bounds the search for the automorphisms."""
    autos = [tuple(x - 1 for x in a) for a in automorphisms(bundle, node_budget)]
    reps, seen = [], set()
    for a in autos:
        if a not in seen:
            seen.update(_relabeled(a, g) for g in autos)
            reps.append(tuple(x + 1 for x in a))
    return reps

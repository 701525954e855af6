"""Exhaustive enumeration of semiquandles and their extensions.

Both searches check the axiom catalog of `algebra`, the one place each
axiom is written.  One generator compiles each predicate into a Python
function by evaluating it once over symbolic tables, and each search
gives it a hook that says what a read and a comparison become there.
Semiquandles of order n are found by a depth-first search that sets the
columns of the up table to permutations (axiom 0 demands exactly that),
derives the dn table from axiom ii.a, and checks every other instance on
tables that hold a padding value where an entry is not known yet, from
the column its reads derive on; of each survivor it checks only that the
columns of dn are permutations.  Singular extensions are found by
backtracking over the cells of hup in row-major order, values ascending,
with hdn derived from axiom hi.a.  Each instance of the other hat axioms
becomes a comparison of two entries of constant matrices read at one
flat state; it is dropped when it reads at most two cells and holds at
every value of them, else checked as soon as the last hup cell it reads
is set.  Both searches build what they yield without the checks of the
public constructors, and carry an explicit node budget (one candidate
column tuple for semiquandles, a pruned block counting one per
candidate in it; one value tried in one hup cell for extensions);
exceeding it raises instead of truncating silently.
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
    of (up, dn, u, *witness) over tables padded with an unknown value u,
    and the witness positions that index a column it reads.  The function
    gives None when a read is u, else whether the instance holds.  Row u
    and column u of both tables hold u, so an unknown read makes every
    read that uses it u too: only the reads no other read uses are tested.
    up[a][b] reads column b and dn[a][b] column a (row a of dn is set with
    column a), so the instance reads u until the largest witness value at
    those positions is a set column, where the search files it."""
    lines, used, columns = {}, set(), set()

    def read(t, a, b):
        if t is None:
            return _Term(read, f"({a.text} == {b.text})")
        used.update((a.text, b.text))
        columns.add((b if t == "up" else a).text)
        return _Term(read, lines.setdefault(f"{t}[{a.text}][{b.text}]", f"r{len(lines)}"))

    def guard():
        outer = " or ".join(f"{v} == u" for v in lines.values() if v not in used)
        return f"    if {outer}:", "        return None"
    check = _generated(holds, arity, "up, dn, u", ("up", "dn"), read, lines, guard)
    return check, tuple(k for k, v in enumerate("xyz"[:arity]) if v in columns)


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
    # instance first filed under the column _column_check derives for it
    # (a lower bound on where it is decided) and retried at the next
    # column while it reads an unknown entry.  The choices for column c
    # append only to waiting[c + 1], and marks[c] holds its length from
    # before them, so each choice, and the way back from c, truncates it
    # back.  waiting[n] stays empty: all is known after the last column.
    waiting = [[] for _ in range(n + 1)]
    for axiom, w in _instances(_FLAT_AXIOMS, n, "ii.a"):
        check, columns = _column_check(axiom, len(w))
        waiting[max(w[k] for k in columns)].append(functools.partial(check, up, dn, n, *w))
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
    checks = [[] for _ in range(cells)]
    seen = set()
    # values[read][i]: the values h[i] takes as the one or two cells of
    # read take every value, in product order
    values = {}
    one = range(1, n + 1)
    two = [*zip(*itertools.product(one, repeat=2))]
    for axiom, w in _instances(_HAT_AXIOMS, n, "hi.a"):
        left, a1, a2, right, b1, b2 = check = _hat_check(axiom, len(w))(*env, *w)
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
    counted against the budget.
    """
    ops = StructureBundle(table).ops
    n = table.n
    derive, checks, finish = _hat_search_plan(ops["up"], ops["dn"], ops["up_inv"])
    h = [0] * (2 * n * n)
    hup, hdn = [None] * n, [None] * n
    finish = [[(hdn if k >= n else hup, k % n, span) for k, span in cell] for cell in finish]
    last = n * n - 1
    # the leaves are proved: build them as _trusted does, without its
    # keyword dict
    new, setfield = object.__new__, object.__setattr__
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
                leaf = new(SingularExtension)
                setfield(leaf, "hup", tuple(hup))
                setfield(leaf, "hdn", tuple(hdn))
                yield leaf


def _conjugacy_classes(autos: list) -> list:
    """The least member of each conjugacy class of the sorted group autos
    of 1-based permutations, sorted.  Conjugating a by g relabels a along
    g.  The first member of a class met is its least, so each class is
    listed once: taking the least over the group for every member costs
    |Aut|^2 relabelings, 25 million on the order-7 projection table."""
    group = [tuple(x - 1 for x in a) for a in autos]
    reps, seen = [], set()
    for a in group:
        if a not in seen:
            seen.update(_relabeled(a, g) for g in group)
            reps.append(tuple(x + 1 for x in a))
    return reps


def enumerate_virtual_structures(bundle: StructureBundle,
                                 node_budget: int = 100_000) -> list:
    """The distinct virtual structures of the bundle: the least member of
    each conjugacy class of its automorphism group, sorted.  The budget
    bounds the search for the automorphisms."""
    return _conjugacy_classes(automorphisms(bundle, node_budget))

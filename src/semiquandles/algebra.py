"""Finite semiquandles as integer operation tables.

Elements are the integers 1..n.  A table entry up[i][j] is the result of
x_i ^ x_j (row = first argument, column = second argument); dn[i][j] is
x_i operated by the subscript operation.  This matches the block-matrix
convention [U|L], so printed matrices can be transcribed verbatim.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence


class StructureError(ValueError):
    """Malformed table data: non-square, wrong size, entry out of range."""


class AxiomError(ValueError):
    """A structure failed axiom checking at construction time."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ", ".join(map(str, self.violations[:6]))
        more = "" if len(self.violations) <= 6 else f" (+{len(self.violations) - 6} more)"
        super().__init__(f"axiom violations: {lines}{more}")


class ResourceBudgetExceeded(RuntimeError):
    """Search node budget exhausted; carries the partial progress made."""

    def __init__(self, nodes: int, found: int, what: str = "structures"):
        self.nodes = nodes
        self.found = found
        super().__init__(f"stopped after {nodes} nodes ({found} {what} found)")


@dataclass(frozen=True, order=True)
class Violation:
    axiom: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.axiom}@{self.witness}"


def _raise_for(report: list) -> None:
    """Raise StructureError for a malformed block, else AxiomError for
    any failed axiom; return when the report is empty."""
    for v in report:
        if v.axiom == "structure":
            raise StructureError(str(v))
    if report:
        raise AxiomError(report)


def _freeze(rows) -> tuple:
    return tuple(tuple(int(v) for v in row) for row in rows)


def _trusted(cls, **fields):
    """A frozen cls from fields already frozen and proven to satisfy its
    axioms, without the copy and the checks of its constructor.  Only the
    enumerators build objects this way, for what their searches have
    proved; the extension search sets the two fields of each of its many
    leaves directly, without the keyword dict."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _structure_report(name: str, rows, n: int) -> list:
    out = []
    if len(rows) != n:
        out.append(Violation("structure", (name, "rows", len(rows))))
        return out
    for i, row in enumerate(rows):
        if len(row) != n:
            out.append(Violation("structure", (name, "row-length", i + 1)))
            return out
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 1 <= v <= n:
                out.append(Violation("structure", (name, "entry", i + 1, j + 1)))
    return out


def _column_is_perm(t, j: int, n: int) -> bool:
    return sorted(t[i][j] for i in range(n)) == list(range(1, n + 1))


# The axiom catalog: every axiom past axiom 0, written once as
# (name, arity, holds), holds(up, dn, *witness) over 0-based tables
# (holds(up, dn, hup, hdn, *witness) for the hat axioms).  Both checkers
# evaluate these predicates, and both enumeration searches compile them;
# each search derives one table from one axiom (dn from ii.a, hdn from
# hi.a), so that every instance of it holds, and checks all the others.
_FLAT_AXIOMS = (
    ("i", 2, lambda up, dn, x, y: (dn[x][y] == y) == (up[y][x] == x)),
    ("ii.a", 2, lambda up, dn, x, y: up[dn[x][y]][up[y][x]] == x),
    ("ii.b", 2, lambda up, dn, x, y: dn[up[x][y]][dn[y][x]] == x),
    ("iii.a", 3, lambda up, dn, x, y, z:
        up[up[x][y]][z] == up[up[x][dn[z][y]]][up[y][z]]),
    ("iii.b", 3, lambda up, dn, x, y, z:
        up[dn[y][x]][dn[z][up[x][y]]] == dn[up[y][z]][up[x][dn[z][y]]]),
    ("iii.c", 3, lambda up, dn, x, y, z:
        dn[dn[z][up[x][y]]][dn[y][x]] == dn[dn[z][y]][x]),
)
_HAT_AXIOMS = (
    ("hi.a", 2, lambda up, dn, hup, hdn, x, y:
        hup[dn[y][x]][up[x][y]] == up[hdn[y][x]][hup[x][y]]),
    ("hi.b", 2, lambda up, dn, hup, hdn, x, y:
        hdn[up[x][y]][dn[y][x]] == dn[hup[x][y]][hdn[y][x]]),
    ("hii.a", 3, lambda up, dn, hup, hdn, x, y, z:
        hup[up[x][y]][z] == up[hup[x][dn[z][y]]][up[y][z]]),
    ("hii.b", 3, lambda up, dn, hup, hdn, x, y, z:
        up[dn[y][x]][hdn[z][up[x][y]]] == dn[up[y][z]][hup[x][dn[z][y]]]),
    ("hii.c", 3, lambda up, dn, hup, hdn, x, y, z:
        dn[hdn[z][up[x][y]]][dn[y][x]] == hdn[dn[z][y]][x]),
)


def _violations(axioms, n: int, *tables) -> list:
    """The failed instances of the catalog entries over 1-based tables."""
    tables = [[[v - 1 for v in row] for row in t] for t in tables]
    witnesses = functools.partial(itertools.product, range(n))
    report = []
    for name, arity, holds in axioms:
        bound = functools.partial(holds, *tables)
        if not all(itertools.starmap(bound, witnesses(repeat=arity))):
            report += [Violation(name, tuple(v + 1 for v in w))
                       for w in witnesses(repeat=arity) if not bound(*w)]
    return report


def check_semiquandle(up: Sequence[Sequence[int]], dn: Sequence[Sequence[int]]) -> list:
    """Report every axiom violation of the pair (up, dn); empty list = valid.

    Witnesses are 1-based; the report is sorted lexicographically by
    (axiom id, witness) so golden-file comparisons are stable.
    """
    n = len(up)
    report = _structure_report("up", up, n) + _structure_report("dn", dn, n)
    if report:
        return sorted(report)
    for j in range(n):
        if not _column_is_perm(up, j, n):
            report.append(Violation("0", ("up", j + 1)))
        if not _column_is_perm(dn, j, n):
            report.append(Violation("0", ("dn", j + 1)))
    return sorted(report + _violations(_FLAT_AXIOMS, n, up, dn))


def check_singular(up, dn, hup, hdn) -> list:
    """Report violations of the hat axioms for (hup, hdn) over a valid (up, dn).

    No invertibility is required of the hat operations; singular crossings
    are never created or removed by moves.
    """
    n = len(up)
    report = _structure_report("hup", hup, n) + _structure_report("hdn", hdn, n)
    if report:
        return sorted(report)
    return sorted(_violations(_HAT_AXIOMS, n, up, dn, hup, hdn))


def check_virtual(up, dn, v, hup=None, hdn=None) -> list:
    """Report failures of v to be an automorphism of all present operations."""
    n = len(up)
    if len(v) != n or sorted(v) != list(range(1, n + 1)):
        return [Violation("structure", ("v", "not-a-permutation"))]
    named = [(name, t) for name, t in zip(("up", "dn", "hup", "hdn"), (up, dn, hup, hdn))
             if t is not None]
    moved = _moved([_zero_based(t) for _, t in named], tuple(x - 1 for x in v))
    return sorted(Violation(f"v.{named[k][0]}", (x + 1, y + 1)) for k, x, y in moved)


@dataclass(frozen=True)
class SemiquandleTable:
    up: tuple
    dn: tuple

    def __post_init__(self):
        object.__setattr__(self, "up", _freeze(self.up))
        object.__setattr__(self, "dn", _freeze(self.dn))
        _raise_for(check_semiquandle(self.up, self.dn))

    @property
    def n(self) -> int:
        return len(self.up)


@dataclass(frozen=True)
class SingularExtension:
    hup: tuple
    hdn: tuple

    def __post_init__(self):
        object.__setattr__(self, "hup", _freeze(self.hup))
        object.__setattr__(self, "hdn", _freeze(self.hdn))

    @property
    def n(self) -> int:
        return len(self.hup)


@dataclass(frozen=True)
class VirtualExtension:
    v: tuple

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(int(x) for x in self.v))

    @property
    def n(self) -> int:
        return len(self.v)


@dataclass(frozen=True)
class StructureBundle:
    """A semiquandle with optional singular and virtual extensions.

    An absent extension is semantically the trivial one (hup = hdn =
    projection to the first argument, v = identity), but `ops` holds the
    hat / v operations only when the extension is actually present.
    """

    table: SemiquandleTable
    singular: Optional[SingularExtension] = None
    virtual: Optional[VirtualExtension] = None

    def __post_init__(self):
        if self.singular is not None:
            if self.singular.n != self.table.n:
                raise StructureError("singular extension order mismatch")
            _raise_for(check_singular(self.table.up, self.table.dn,
                                      self.singular.hup, self.singular.hdn))
        if self.virtual is not None:
            if self.virtual.n != self.table.n:
                raise StructureError("virtual extension order mismatch")
            hup = self.singular.hup if self.singular else None
            hdn = self.singular.hdn if self.singular else None
            _raise_for(check_virtual(self.table.up, self.table.dn,
                                     self.virtual.v, hup, hdn))

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def has_singular(self) -> bool:
        return self.singular is not None

    @property
    def has_virtual(self) -> bool:
        return self.virtual is not None

    @cached_property
    def ops(self) -> Mapping[str, tuple]:
        """The bundle's operations as 0-based tables by name, built once.

        Always `up`, `dn` and the column inverse `up_inv` of up (axiom 0),
        which the singular-extension search reads: up_inv[up[x][y]][y] ==
        x.  `hup`, `hdn` only when the bundle is singular, and the
        permutation `v` only when it is virtual; an absent extension has
        no entries.
        """
        ops = {"up": _zero_based(self.table.up), "dn": _zero_based(self.table.dn),
               "up_inv": _zero_based(column_inverse(self.table.up))}
        if self.singular is not None:
            ops["hup"] = _zero_based(self.singular.hup)
            ops["hdn"] = _zero_based(self.singular.hdn)
        if self.virtual is not None:
            ops["v"] = tuple(x - 1 for x in self.virtual.v)
        return MappingProxyType(ops)

    @cached_property
    def _tables(self) -> dict:
        """Private to `present`: the coloring solver's constraint tables by
        (kinds, label pattern), each built on first use and kept, like
        `ops`, as long as the bundle."""
        return {}

    @cached_property
    def _image_sizes(self) -> dict:
        """Private to `present`: |subclosure| by value mask (bit x-1 for
        value x), each closed on first use and kept as long as the bundle."""
        return {}

    def with_trivial_extensions(self) -> "StructureBundle":
        """Fill absent extensions with the trivial ones where they are valid.

        The identity virtual extension always is.  The trivial singular one
        (hup = hdn = projection to the first argument) satisfies the hat
        axioms only on some tables (among the builtins, only on `ts3_v13`,
        whose up and dn agree), so a bundle whose table rejects it stays
        without a singular extension.  The lifted bundle is built once and
        kept, as `ops` is, so its solver tables are kept too.
        """
        return self._lifted

    @cached_property
    def _lifted(self) -> "StructureBundle":
        singular = self.singular
        if singular is None:
            try:
                singular = StructureBundle(self.table, trivial_singular(self.n)).singular
            except AxiomError:
                pass
        virtual = self.virtual or VirtualExtension(identity_perm(self.n))
        return StructureBundle(self.table, singular, virtual)


# the extension that carries each optional relation kind
EXTENSION_OF = {"hup": "singular", "hdn": "singular", "v": "virtual"}


def _binary_tables(ops: Mapping[str, tuple]) -> list:
    """The forward binary tables present in a compiled form."""
    return [ops[name] for name in ("up", "dn", "hup", "hdn") if name in ops]


def subclosure(bundle: StructureBundle, seed: Iterable[int]) -> frozenset:
    """Smallest superset of seed closed under all forward bundle operations.

    Closure under forward up/dn on a finite set implies closure under their
    inverses, and v-closure implies closure under v inverse, so only forward
    operations need iterating.
    """
    binops = _binary_tables(bundle.ops)
    v = bundle.ops.get("v")
    closed = {x - 1 for x in seed}
    frontier = list(closed)
    while frontier:
        x = frontier.pop()
        others = list(closed)
        for y in others:
            for t in binops:
                for a, b in ((x, y), (y, x)):
                    z = t[a][b]
                    if z not in closed:
                        closed.add(z)
                        frontier.append(z)
        if v is not None:
            z = v[x]
            if z not in closed:
                closed.add(z)
                frontier.append(z)
    return frozenset(x + 1 for x in closed)


def _relabeled(t, phi) -> tuple:
    """The 0-based table or map t carried along the 0-based permutation
    phi: entry (phi x, phi y) of a table becomes phi(t[x][y]), and entry
    phi x of a map becomes phi(t[x])."""
    inv = [0] * len(phi)
    for x, image in enumerate(phi):
        inv[image] = x
    if isinstance(t[0], int):
        return tuple(phi[t[x]] for x in inv)
    return tuple(tuple(phi[row[y]] for y in inv) for row in (t[x] for x in inv))


def _moved(tables, phi):
    """Lazily, each (k, x, y) at which the 0-based permutation phi does
    not carry the 0-based table tables[k] onto itself:
    phi(t[x][y]) != t[phi x][phi y]."""
    r = range(len(phi))
    return ((k, x, y) for k, t in enumerate(tables) for x in r for y in r
            if phi[t[x][y]] != t[phi[x]][phi[y]])


def automorphisms(bundle: StructureBundle, node_budget: int = 100_000) -> list:
    """All permutations preserving every operation of the bundle, sorted.

    Brute force over S_n, one node per permutation tried, counted against
    the budget; the default covers every order up to 8 (8! = 40,320).
    """
    tables = _binary_tables(bundle.ops)
    v = bundle.ops.get("v")
    found = []
    for nodes, phi in enumerate(itertools.permutations(range(bundle.n)), 1):
        if nodes > node_budget:
            raise ResourceBudgetExceeded(nodes, len(found), "automorphisms")
        if (next(_moved(tables, phi), None) is None
                and (v is None or _relabeled(v, phi) == v)):
            found.append(tuple(x + 1 for x in phi))
    return found


# ---------------------------------------------------------------------------
# constructions

def identity_perm(n: int) -> tuple:
    return tuple(range(1, n + 1))


def perm_from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> tuple:
    """Build the image tuple of a permutation of 1..n from disjoint cycles."""
    images = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
            images[a - 1] = b
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("cycles do not describe a permutation")
    return tuple(images)


def column_inverse(t: Sequence[Sequence[int]]) -> tuple:
    """The 1-based table inv with inv[x-1][y-1] = w exactly when
    t[w-1][y-1] = x; defined when every column of t is a permutation."""
    n = len(t)
    inv = [[0] * n for _ in range(n)]
    for w in range(n):
        for y in range(n):
            inv[t[w][y] - 1][y] = w + 1
    return tuple(tuple(row) for row in inv)


def _zero_based(t: Sequence[Sequence[int]]) -> tuple:
    return tuple(tuple(x - 1 for x in row) for row in t)


def perm_inverse(p: Sequence[int]) -> tuple:
    inv = [0] * len(p)
    for i, img in enumerate(p):
        inv[img - 1] = i + 1
    return tuple(inv)


def make_constant_action(n: int, sigma: Sequence[int]) -> SemiquandleTable:
    """x^y = sigma(x), x_y = sigma^{-1}(x) for a fixed permutation sigma."""
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("sigma is not a permutation of 1..n")
    inv = perm_inverse(sigma)
    up = tuple(tuple(sigma[x] for _ in range(n)) for x in range(n))
    dn = tuple(tuple(inv[x] for _ in range(n)) for x in range(n))
    return SemiquandleTable(up, dn)


def make_operator_singular(table: SemiquandleTable) -> SingularExtension:
    """hup(x, y) = hdn(x, y) = y."""
    n = table.n
    row = tuple(range(1, n + 1))
    block = tuple(row for _ in range(n))
    return SingularExtension(block, block)


def make_flat_singular(table: SemiquandleTable) -> SingularExtension:
    """hup = up, hdn = dn."""
    return SingularExtension(table.up, table.dn)


def trivial_singular(n: int) -> SingularExtension:
    """hup(x, y) = hdn(x, y) = x."""
    block = tuple(tuple(x for _ in range(n)) for x in range(1, n + 1))
    return SingularExtension(block, block)


# ---------------------------------------------------------------------------
# text format

def format_table_text(bundle: StructureBundle) -> str:
    """Serialize a bundle in the table text format (see parse_table_text)."""
    head = f"semiquandle {bundle.n}"
    if bundle.has_singular:
        head += " singular"
    if bundle.has_virtual:
        head += " virtual"
    blocks = [bundle.table.up, bundle.table.dn]
    if bundle.has_singular:
        blocks += [bundle.singular.hup, bundle.singular.hdn]
    parts = [head]
    for block in blocks:
        parts.append("\n".join(" ".join(str(v) for v in row) for row in block))
    text = "\n\n".join(parts)
    if bundle.has_virtual:
        text += "\n\nv: " + " ".join(str(v) for v in bundle.virtual.v)
    return text + "\n"


def _int_tokens(line: str) -> tuple:
    try:
        return tuple(int(t) for t in line.split())
    except ValueError:
        raise StructureError(f"non-integer entry in {line.strip()!r}") from None


def parse_table_text(text: str) -> StructureBundle:
    """Parse the table text format.

    Line 1 is `semiquandle <n> [singular] [virtual]`, followed by
    whitespace-separated 1-based n x n blocks (up, dn, and hup/hdn when
    singular), separated by blank lines, and one final `v: p1 ... pn`
    line when virtual.  Raises StructureError on malformed text (a
    repeated flag or a second `v:` line included) and AxiomError when the
    tables fail an axiom.
    """
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise StructureError("empty table text")
    head = lines[0].split()
    if not head or head[0] != "semiquandle" or len(head) < 2:
        raise StructureError("first line must be 'semiquandle <n> [singular] [virtual]'")
    try:
        n = int(head[1])
    except ValueError:
        raise StructureError(f"bad order {head[1]!r}") from None
    if n < 1:
        raise StructureError(f"order must be at least 1, got {n}")
    flags = set(head[2:])
    if not flags <= {"singular", "virtual"}:
        raise StructureError(f"unknown flags {sorted(flags - {'singular', 'virtual'})}")
    repeated = sorted(f for f in flags if head.count(f) > 1)
    if repeated:
        raise StructureError(f"repeated flags {repeated}")
    v = None
    rows = []
    for ln in lines[1:]:
        if not ln:
            continue
        if ln.startswith("v:"):
            if v is not None:
                raise StructureError("more than one 'v:' line")
            v = _int_tokens(ln[2:])
            continue
        rows.append(_int_tokens(ln))
    want = 2 + (2 if "singular" in flags else 0)
    if len(rows) != want * n:
        raise StructureError(f"expected {want * n} table rows, got {len(rows)}")
    blocks = [tuple(rows[k * n:(k + 1) * n]) for k in range(want)]
    table = SemiquandleTable(blocks[0], blocks[1])
    singular = SingularExtension(blocks[2], blocks[3]) if "singular" in flags else None
    if "virtual" in flags:
        if v is None:
            raise StructureError("virtual flag set but no 'v:' line")
        virtual = VirtualExtension(v)
    else:
        if v is not None:
            raise StructureError("'v:' line without virtual flag")
        virtual = None
    return StructureBundle(table, singular, virtual)


# ---------------------------------------------------------------------------
# built-in structures used throughout the test and CLI surfaces

_T4_UP = ((1, 4, 2, 3), (2, 3, 1, 4), (4, 1, 3, 2), (3, 2, 4, 1))
_T4_DN = ((1, 3, 4, 2), (3, 1, 2, 4), (2, 4, 3, 1), (4, 2, 1, 3))

_T4_HUP = ((1, 1, 4, 4), (1, 1, 4, 4), (2, 2, 3, 3), (2, 2, 3, 3))
_T4_HDN = ((1, 2, 2, 1), (4, 3, 3, 4), (4, 3, 3, 4), (1, 2, 2, 1))

_TS3_UP = ((1, 3, 1), (2, 2, 2), (3, 1, 3))


@functools.cache
def builtin_bundle(name: str) -> StructureBundle:
    """Bundles used as standard probes, each built once per process.

    t4        order-4 non-constant-action semiquandle
    t4_sing   t4 with its compatible 4x4 singular structure
    ca3       constant action semiquandle on {1,2,3} with sigma = (1 3 2)
    ca3_op    ca3 with the operator singular structure
    ts3_v13   order-3 semiquandle with virtual operation v = (1 3)
    """
    if name == "t4":
        return StructureBundle(SemiquandleTable(_T4_UP, _T4_DN))
    if name == "t4_sing":
        return StructureBundle(SemiquandleTable(_T4_UP, _T4_DN),
                               SingularExtension(_T4_HUP, _T4_HDN))
    if name == "ca3":
        return StructureBundle(make_constant_action(3, perm_from_cycles(3, [[1, 3, 2]])))
    if name == "ca3_op":
        table = make_constant_action(3, perm_from_cycles(3, [[1, 3, 2]]))
        return StructureBundle(table, make_operator_singular(table))
    if name == "ts3_v13":
        table = SemiquandleTable(_TS3_UP, _TS3_UP)
        return StructureBundle(table, virtual=VirtualExtension((3, 2, 1)))
    raise KeyError(f"unknown builtin bundle {name!r}")


BUILTIN_BUNDLES = ("t4", "t4_sing", "ca3", "ca3_op", "ts3_v13")

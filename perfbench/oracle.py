"""Reference computations the benchmark checks the program against.

Everything here is written from the definitions, apart from the package:
the semiquandle axioms, the fundamental relations of a pass code,
colorings by exhaustive product enumeration, subalgebra closure,
automorphisms and isomorphism classes of small tables, and the code
transformations (relabeling, an inserted flat R1 kink, sign negation)
under which the invariants must not change.  Tables are 0-based tuples
of rows here; the text formats read and written are the package's
documented 1-based ones.
"""

from __future__ import annotations

import itertools
import random
import re


# ---------------------------------------------------------------------------
# axioms

def is_semiquandle(up, dn) -> bool:
    """Axioms 0, i, ii and iii of a semiquandle on {0..n-1}."""
    n = len(up)
    r = range(n)
    for t in (up, dn):
        for y in r:
            if len({t[x][y] for x in r}) != n:
                return False
    for x in r:
        for y in r:
            if (dn[x][y] == y) != (up[y][x] == x):
                return False
            if up[dn[x][y]][up[y][x]] != x or dn[up[x][y]][dn[y][x]] != x:
                return False
    for x in r:
        for y in r:
            for z in r:
                if up[up[x][y]][z] != up[up[x][dn[z][y]]][up[y][z]]:
                    return False
                if up[dn[y][x]][dn[z][up[x][y]]] != dn[up[y][z]][up[x][dn[z][y]]]:
                    return False
                if dn[dn[z][up[x][y]]][dn[y][x]] != dn[dn[z][y]][x]:
                    return False
    return True


def is_singular(up, dn, hup, hdn) -> bool:
    """The hat axioms of a singular extension of a semiquandle."""
    r = range(len(up))
    for x in r:
        for y in r:
            if hup[dn[y][x]][up[x][y]] != up[hdn[y][x]][hup[x][y]]:
                return False
            if hdn[up[x][y]][dn[y][x]] != dn[hup[x][y]][hdn[y][x]]:
                return False
    for x in r:
        for y in r:
            for z in r:
                if hup[up[x][y]][z] != up[hup[x][dn[z][y]]][up[y][z]]:
                    return False
                if up[dn[y][x]][hdn[z][up[x][y]]] != dn[up[y][z]][hup[x][dn[z][y]]]:
                    return False
                if dn[hdn[z][up[x][y]]][dn[y][x]] != hdn[dn[z][y]][x]:
                    return False
    return True


def is_automorphism(p, tables, v=None) -> bool:
    r = range(len(p))
    if any(p[t[x][y]] != t[p[x]][p[y]] for t in tables for x in r for y in r):
        return False
    return v is None or all(p[v[x]] == v[p[x]] for x in r)


def automorphisms(tables, v=None) -> list:
    n = len(tables[0])
    return [p for p in itertools.permutations(range(n))
            if is_automorphism(p, tables, v)]


def relabel_table(t, p) -> tuple:
    """The table of the isomorphic copy under the bijection p."""
    n = len(t)
    inv = [0] * n
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(tuple(p[t[inv[x]][inv[y]]] for y in range(n)) for x in range(n))


def iso_key(up, dn) -> tuple:
    n = len(up)
    return min((relabel_table(up, p), relabel_table(dn, p))
               for p in itertools.permutations(range(n)))


def all_semiquandles(n: int) -> list:
    """Every semiquandle of order n.  Axiom 0 makes every column of up a
    permutation, and axiom ii then forces dn: dn[x][y] is the w with
    up[w][up[y][x]] = x.  So every such up, with its forced dn, is tested."""
    cols = list(itertools.permutations(range(n)))
    found = []
    for combo in itertools.product(cols, repeat=n):
        up = tuple(tuple(c[x] for c in combo) for x in range(n))
        col_inv = [{up[w][y]: w for w in range(n)} for y in range(n)]
        dn = tuple(tuple(col_inv[up[y][x]][x] for y in range(n)) for x in range(n))
        if is_semiquandle(up, dn):
            found.append((up, dn))
    return sorted(found)


def all_singular_extensions(up, dn) -> list:
    """Every singular extension: hdn is forced by the first hat axiom once
    hup is chosen, because each column of up is a permutation."""
    n = len(up)
    col_inv = [{up[x][y]: x for x in range(n)} for y in range(n)]
    found = []
    for flat in itertools.product(range(n), repeat=n * n):
        hup = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        hdn = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                hdn[y][x] = col_inv[hup[x][y]][hup[dn[y][x]][up[x][y]]]
        hdn = tuple(map(tuple, hdn))
        if is_singular(up, dn, hup, hdn):
            found.append((hup, hdn))
    return found


def closure(ops, v, seed) -> frozenset:
    """Smallest subset containing seed that is closed under every binary
    table in ops and under the permutation v (None when absent)."""
    out = set(seed)
    while True:
        new = {t[a][b] for t in ops for a in out for b in out}
        if v is not None:
            new |= {v[a] for a in out}
        if new <= out:
            return frozenset(out)
        out |= new


def subalgebra_sizes(ops, v, n) -> set:
    return {len(closure(ops, v, s))
            for k in range(1, n + 1) for s in itertools.combinations(range(n), k)}


# ---------------------------------------------------------------------------
# text formats

def table_text(up, dn) -> str:
    """A semiquandle in the table text format, from 0-based tables."""
    parts = [f"semiquandle {len(up)}"] + [
        "\n".join(" ".join(str(e + 1) for e in row) for row in t) for t in (up, dn)]
    return "\n\n".join(parts) + "\n"


def parse_tables_stream(text: str) -> list:
    """(up, dn) pairs, 0-based, from the `%`-separated listing of
    `enumerate` without --json."""
    out = []
    for chunk in text.split("%\n"):
        rows = [ln.split() for ln in chunk.splitlines()
                if ln and ln[0].isdigit()]
        if not rows:
            continue
        n = len(rows[0])
        t = tuple(tuple(int(e) - 1 for e in row) for row in rows)
        out.append((t[:n], t[n:2 * n]))
    return out


_TERM = re.compile(r"^(\d*)(z(?:\^(\d+))?)?$")


def parse_polynomial(text: str) -> dict:
    """{exponent: coefficient} from the canonical polynomial text."""
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        m = _TERM.match(term)
        if not m or not term:
            raise ValueError(f"bad term {term!r}")
        coef = int(m.group(1)) if m.group(1) else 1
        exp = 0 if not m.group(2) else int(m.group(3) or 1)
        out[exp] = coef
    return out


# ---------------------------------------------------------------------------
# pass codes as lists of (kind, id, role, sign) tuples

_ROLES = {"F": ("sup", "sub"), "S": ("sup", "sub"), "V": ("v+", "v-")}
_PASS = re.compile(r"^([FSVC])(\d+)\.(sup|sub|v\+|v-|over|under)([+-]?)$")


def code_text(comps) -> str:
    def one(p):
        kind, cid, role, sign = p
        tail = "" if not sign else ("+" if sign > 0 else "-")
        return f"{kind}{cid}.{role}{tail}"
    return "".join("comp:" + "".join(" " + one(p) for p in c) + "\n" for c in comps)


def parse_code_text(text: str) -> list:
    comps = []
    for line in text.splitlines():
        toks = line.split()[1:]
        comp = []
        for tok in toks:
            kind, cid, role, sign = _PASS.match(tok).groups()
            comp.append((kind, int(cid), role, {"+": 1, "-": -1, "": 0}[sign]))
        comps.append(comp)
    return comps


def random_code(rng: random.Random, counts: dict, ncomp: int) -> list:
    """A code with exactly counts[kind] crossings of each kind, its passes
    shuffled and cut into ncomp non-empty components."""
    passes = []
    for kind in sorted(counts):
        for cid in range(1, counts[kind] + 1):
            passes += [(kind, cid, role, 0) for role in _ROLES[kind]]
    rng.shuffle(passes)
    cuts = sorted(rng.sample(range(1, len(passes)), ncomp - 1)) + [len(passes)]
    comps, start = [], 0
    for cut in cuts:
        comps.append(passes[start:cut])
        start = cut
    return comps


def equal_components_code(rng: random.Random, ncomp: int, length: int) -> list:
    """ncomp components of `length` passes each, over a random mix of
    flat, singular and virtual crossings."""
    total = ncomp * length
    kinds = [rng.choice("FSV") for _ in range(total // 2)]
    passes = []
    for cid, kind in enumerate(kinds, start=1):
        passes += [(kind, cid, role, 0) for role in _ROLES[kind]]
    rng.shuffle(passes)
    return [passes[i * length:(i + 1) * length] for i in range(ncomp)]


def classical_code(rng: random.Random, crossings: int) -> list:
    passes = []
    for cid in range(1, crossings + 1):
        sign = rng.choice((1, -1))
        passes += [("C", cid, "over", sign), ("C", cid, "under", sign)]
    rng.shuffle(passes)
    return [passes]


def relabel_code(comps, rng: random.Random) -> list:
    """The same diagram written differently: every component rotated,
    the components permuted and each kind's crossings renumbered."""
    comps = [c[k:] + c[:k] for c in comps for k in [rng.randrange(len(c)) if c else 0]]
    rng.shuffle(comps)
    ids = {}
    for kind in "FSVC":
        old = sorted({p[1] for c in comps for p in c if p[0] == kind})
        new = rng.sample(range(1, len(old) + 1), len(old))
        ids.update(((kind, a), b) for a, b in zip(old, new))
    return [[(k, ids[(k, cid)], role, s) for k, cid, role, s in c] for c in comps]


def with_kink(comps, rng: random.Random) -> list:
    """A flat R1 kink inserted before a random pass of a random component."""
    fresh = max((p[1] for c in comps for p in c if p[0] == "F"), default=0) + 1
    comps = [list(c) for c in comps]
    c = comps[rng.randrange(len(comps))]
    at = rng.randrange(len(c) + 1)
    roles = ("sup", "sub") if rng.random() < 0.5 else ("sub", "sup")
    c[at:at] = [("F", fresh, roles[0], 0), ("F", fresh, roles[1], 0)]
    return comps


def negated(comps) -> list:
    return [[(k, cid, role, -s) for k, cid, role, s in c] for c in comps]


# ---------------------------------------------------------------------------
# colorings

def relations(comps) -> tuple:
    """(number of semiarcs, relations) of a flat, singular or virtual code.

    Semiarc j of a component runs from its pass j to its next pass; a
    crossing-free component is one free semiarc.  A flat crossing whose
    sup pass takes semiarc a to a2 and whose sub pass takes b to b2 gives
    a2 = up(a, b) and b2 = dn(b, a); a singular crossing gives the hat
    operations alike.  A v+ pass gives out = v(in), a v- pass in = v(out).
    Relations are (op, x, y, z) meaning op(x, y) = z, or ("v", x, z).
    """
    base, out_of, in_of = 0, {}, {}
    for c in comps:
        m = max(len(c), 1)
        for j, p in enumerate(c):
            out_of[p[:3]] = base + j
            in_of[p[:3]] = base + (j - 1) % m
        base += m
    rels = []
    for c in comps:
        for kind, cid, role, _ in c:
            if kind == "V":
                a, a2 = in_of[(kind, cid, role)], out_of[(kind, cid, role)]
                rels.append(("v", a, a2) if role == "v+" else ("v", a2, a))
            elif role == "sup":
                a, a2 = in_of[(kind, cid, "sup")], out_of[(kind, cid, "sup")]
                b, b2 = in_of[(kind, cid, "sub")], out_of[(kind, cid, "sub")]
                hi, lo = ("up", "dn") if kind == "F" else ("hup", "hdn")
                rels += [(hi, a, b, a2), (lo, b, a, b2)]
    return base, tuple(rels)


def naive_colorings(nlabels, rels, ops: dict, v, n):
    """Every map labels -> {0..n-1} satisfying the relations."""
    for f in itertools.product(range(n), repeat=nlabels):
        if all(f[r[2]] == v[f[r[1]]] if r[0] == "v"
               else f[r[3]] == ops[r[0]][f[r[1]]][f[r[2]]] for r in rels):
            yield f

"""Reidemeister-style move rewriting on pass codes.

The catalog covers the flat moves fR1/fR2/fR3, the virtual moves
vR1/vR2/vR3, the mixed (virtual-virtual-flat) triangle move, the direct
singular slide sR2, and the flat-flat-singular triangle sR3.  Singular
crossings are never created or removed, so sR2/sR3 exist only as
rewrites while the R1/R2 moves also insert and delete crossings.

The catalog is generated from three rules rather than listed: a kink
(`_kink`, one strand through both passes of a crossing) gives fR1/vR1,
a bigon (`_bigon`, two strands through two crossings, each taking
opposite roles at its two) gives fR2/vR2 and both singular slides, and
a triangle rule (`_sound`) gives the three-strand moves.  Every move is
matched the same way: the passes at a site are relabeled into a
canonical descriptor and looked up in the delete or the rewrite table.

Soundness of a configuration means: the multiset of boundary colorings
(strand input and output colors admitting a consistent internal
coloring) is identical on both sides of the rewrite, for every valid
structure bundle, which makes the coloring sets of the two codes
correspond bijectively.  The test suite re-derives the insert and
triangle catalogs by exhaustive search over all role/order assignments,
checked against a diverse set of bundles.

The rewrite table also holds two families outside MOVE_IDS: every
flat-flat-virtual triangle (move id `forbidden`), none of which is
sound, and the antiparallel singular slide (`sR2_reverse`), a sound
derived move.  `moves_of` and `apply_move` reach every id, so tests can
show that the first changes invariants and the second does not, while
`applicable_moves` lists the ids of MOVE_IDS only.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .diagram import (_ROLES, FLAT, SING, VIRT, Pass, PassCode,
                      component_text, extract_relations)
from .present import enhanced_invariant

MOVE_IDS = ("fR1", "fR2", "fR3", "vR1", "vR2", "vR3", "mixed", "sR2", "sR3")


class MoveError(ValueError):
    """Move pattern does not match the code at the given site."""


@dataclass(frozen=True, order=True)
class MoveSpec:
    """One applicable move: id, direction, site, and oriented variant.

    Sites are tuples of (component index, pass index) positions: for
    inserts, the positions receiving each inserted strand segment, before
    the pass at that index (index len(component) appends); for deletes
    and rewrites, the start position of each matched two-pass segment.
    """

    move: str
    direction: str      # insert | delete | apply
    site: tuple
    variant: str


# ---------------------------------------------------------------------------
# kink and bigon rules
#
# A template lists one segment per strand as (crossing placeholder, kind,
# role) pairs.  A role is named by its index in the kind's role pair
# (0: sup or v+, 1: sub or v-).  Every insert template is sound: the
# inserted relations have a unique internal solution whose outputs equal
# the inputs, and the test suite finds exactly these among all kinks and
# bigons of one kind.

def _kink(kind: str, lead: int) -> tuple:
    """One strand through both passes of X, taking role `lead` first."""
    roles = _ROLES[kind]
    return ((("X", kind, roles[lead]), ("X", kind, roles[1 - lead])),)


def _bigon(kx: str, ky: str, lead: int, antiparallel: bool) -> tuple:
    """Two strands through X (of kind kx) and Y (of kind ky).  Strand 0
    takes role `lead` at X and the other role at Y, strand 1 the opposite
    role at each; strand 1 meets Y first when the bigon is antiparallel."""
    rx, ry = _ROLES[kx], _ROLES[ky]
    s0 = (("X", kx, rx[lead]), ("Y", ky, ry[1 - lead]))
    s1 = (("X", kx, rx[1 - lead]), ("Y", ky, ry[lead]))
    return s0, s1[::-1] if antiparallel else s1


_R2_VARIANTS = (("direct", 0, False), ("mirror", 1, False),
                ("reverse", 0, True), ("reverse_mirror", 1, True))

_INSERTS = {
    ("fR1", "sup_first"): _kink(FLAT, 0),
    ("fR1", "sub_first"): _kink(FLAT, 1),
    ("vR1", "vp_first"): _kink(VIRT, 0),
    ("vR1", "vm_first"): _kink(VIRT, 1),
    **{(move, variant): _bigon(kind, kind, lead, anti)
       for move, kind in (("fR2", FLAT), ("vR2", VIRT))
       for variant, lead, anti in _R2_VARIANTS},
}

# the direct singular slide moves the flat crossing from before the
# singular one to after it on both (parallel) strands.  The antiparallel
# slide (the strands meet the two crossings in opposite orders) is sound
# by boundary-solution equivalence, but kept out of MOVE_IDS as the
# reverse singular R2 derived move.
_SLIDES = (("sR2", "flat_first", _bigon(FLAT, SING, 0, False)),
           ("sR2", "sing_first", _bigon(SING, FLAT, 0, False)),
           ("sR2_reverse", "sup_lead", _bigon(FLAT, SING, 0, True)),
           ("sR2_reverse", "sub_lead", _bigon(FLAT, SING, 1, True)))


# ---------------------------------------------------------------------------
# triangle rule
#
# A triangle configuration is kinds:firsts:prims where kinds gives the
# crossing kinds at A=(strand0,strand1), B=(strand0,strand2),
# C=(strand1,strand2); firsts says per strand which of its two
# crossings it meets first; prims says per crossing which strand takes
# the sup (or v+) role.

_TRIANGLE_MOVE = {"FFF": "fR3", "SFF": "sR3", "FSF": "sR3", "FFS": "sR3",
                  "VVV": "vR3", "FVV": "mixed", "VFV": "mixed", "VVF": "mixed"}

_BITS = tuple(itertools.product((0, 1), repeat=3))


def _sound(kinds: str, f: tuple, p: tuple) -> bool:
    """Whether a configuration of a `_TRIANGLE_MOVE` family, the only
    ones it rules on, is sound: every one of a family with a virtual
    crossing is; one of flat and singular crossings exactly when
    p0^p1 = f1^f2 and p0^p2 = f0^f2 (f the firsts, p the prims).  No
    configuration of the forbidden flat-flat-virtual families is sound;
    `_rewrites` keeps each one under the move id `forbidden`."""
    return "V" in kinds or (p[0] ^ p[1] == f[1] ^ f[2] and p[0] ^ p[2] == f[0] ^ f[2])


_CROSS_STRANDS = {"A": (0, 1), "B": (0, 2), "C": (1, 2)}


def _triangles(families, keep) -> list:
    """(move, variant, strands) of each configuration of the families
    that keep(kinds, firsts, prims) accepts, firsts and prims as bit
    triples; the variant is the configuration's kinds:firsts:prims."""
    out = []
    for kinds, firsts, prims in itertools.product(families, _BITS, _BITS):
        if not keep(kinds, firsts, prims):
            continue
        roles = {}
        for cx, kind, bit in zip("ABC", kinds, prims):
            pair = _CROSS_STRANDS[cx]
            roles[cx, pair[bit]], roles[cx, pair[1 - bit]] = _ROLES[kind]
        strands = []
        for s, first in enumerate(firsts):
            xs = [(cx, kind) for cx, kind in zip("ABC", kinds) if s in _CROSS_STRANDS[cx]]
            strands.append(tuple((cx, kind, roles[cx, s])
                                 for cx, kind in (xs[::-1] if first else xs)))
        variant = "%s:%d%d%d:%d%d%d" % (kinds, *firsts, *prims)
        out.append((_TRIANGLE_MOVE.get(kinds, "forbidden"), variant, strands))
    return out


# ---------------------------------------------------------------------------
# descriptor tables

def _canonical_descriptor(strands) -> tuple:
    """Relabel crossings by first appearance across the ordered strands."""
    names = {}
    return tuple(tuple((names.setdefault(cx, len(names)), kind, role)
                       for cx, kind, role in st) for st in strands)


def _expand_table(entries, action: str) -> dict:
    """Close (move, variant, strands) entries under strand reordering,
    keyed by descriptor; the first entry reaching a descriptor keeps it."""
    table = {}
    for move, variant, strands in entries:
        for perm in itertools.permutations(strands):
            table.setdefault(_canonical_descriptor(perm), (move, variant, action))
    return table


# a delete site lists its segments in template order, so only the
# template order is a key
_DELETES = {_canonical_descriptor(template): (move, variant, "delete")
            for (move, variant), template in _INSERTS.items()}


@functools.cache
def _rewrites() -> dict:
    """Every rewrite: the sound triangles (the test suite re-derives them
    by exhaustive boundary-solution search) and direct slides of
    MOVE_IDS, and every forbidden triangle and reverse slide.  This table
    and the per-move tables are built on first use, not at import, so
    that a command that matches no move does not pay for them."""
    families = (*_TRIANGLE_MOVE, "FFV", "FVF", "VFF")
    table = _expand_table(_triangles(
        families, lambda k, f, p: k not in _TRIANGLE_MOVE or _sound(k, f, p)), "swap")
    table.update(_expand_table(_SLIDES, "slide"))
    return table


# ---------------------------------------------------------------------------
# matching

def _descriptor_at(code: PassCode, site) -> tuple:
    """The canonical descriptor of the two-pass segment starting at each
    position of the site; MoveError when a position starts no segment."""
    comps = code.components
    strands = []
    for ci, i in site:
        if not (0 <= ci < len(comps) and 0 <= i < len(comps[ci]) - 1):
            raise MoveError(f"no segment at {(ci, i)}")
        strands.append(tuple((p.crossing, p.kind, p.role) for p in comps[ci][i:i + 2]))
    return _canonical_descriptor(strands)


def _matches(code: PassCode, table: dict, choose) -> list:
    """MoveSpec of every site whose descriptor the table holds.

    Sites are the choices (`itertools.permutations` when segment order
    matters, `combinations` when the table holds every order) of
    non-wrapping segments.  A table descriptor has k crossings on its k
    segments and never repeats a pass, so only sites touching exactly k
    crossings are looked up, and sites that overlap never match.
    """
    segs = {(ci, i): (comp[i].crossing, comp[i + 1].crossing)
            for ci, comp in enumerate(code.components)
            for i in range(len(comp) - 1)}
    found = []
    for k in sorted({len(d) for d in table}):
        for site in choose(segs, k):
            if len({x for s in site for x in segs[s]}) != k:
                continue
            hit = table.get(_descriptor_at(code, site))
            if hit:
                move, variant, action = hit
                direction = "delete" if action == "delete" else "apply"
                found.append(MoveSpec(move, direction, site, variant))
    return found


# ---------------------------------------------------------------------------
# application

def _fresh_ids(code: PassCode, template) -> dict:
    used = {}
    for kind, cid in code.where:
        used[kind] = max(used.get(kind, 0), cid)
    ids = {}
    for seg in template:
        for ph, kind, _ in seg:
            if ph not in ids:
                used[kind] = used.get(kind, 0) + 1
                ids[ph] = (kind, used[kind])
    return ids


def _insert(code: PassCode, m: MoveSpec) -> PassCode:
    template = _INSERTS.get((m.move, m.variant))
    if template is None:
        raise MoveError(f"unknown insert {m.move}/{m.variant}")
    if len(m.site) != len(template):
        raise MoveError(f"{m.move} needs {len(template)} sites")
    for ci, i in m.site:
        if not (0 <= ci < len(code.components) and 0 <= i <= len(code.components[ci])):
            raise MoveError(f"no semiarc at {(ci, i)}")
    ids = _fresh_ids(code, template)
    comps = [list(c) for c in code.components]
    # segments sharing a site are laid down in template order
    order = sorted(range(len(template)), key=lambda k: (m.site[k], k), reverse=True)
    for k in order:
        ci, i = m.site[k]
        passes = [Pass(kind, ids[ph][1], role) for ph, kind, role in template[k]]
        comps[ci][i:i] = passes
    return PassCode(tuple(tuple(c) for c in comps))


_FLIP = {"sup": "sub", "sub": "sup"}


def _apply_at(code: PassCode, site, action: str) -> PassCode:
    """Delete, swap, or swap with both roles flipped (slide) the two
    passes of each segment of a matched site."""
    comps = [list(c) for c in code.components]
    for ci, i in sorted(site, reverse=True):
        a, b = comps[ci][i:i + 2]
        if action == "slide":
            a = Pass(a.kind, a.cid, _FLIP[a.role])
            b = Pass(b.kind, b.cid, _FLIP[b.role])
        comps[ci][i:i + 2] = [] if action == "delete" else [b, a]
    return PassCode(tuple(tuple(c) for c in comps))


def apply_move(code: PassCode, m: MoveSpec) -> PassCode:
    """Apply one move of any id `moves_of` lists, the forbidden triangle
    and the reverse slide included; raises MoveError on pattern mismatch.

    Rewrites (direction `apply`) are involutive at their site, so the
    same MoveSpec undoes them; inserts are undone by the delete of the
    same variant at the landing site (see inverse_of).
    """
    if m.direction == "insert":
        return _insert(code, m)
    table = {"delete": _DELETES, "apply": _rewrites()}.get(m.direction)
    if table is None:
        raise MoveError(f"unknown direction {m.direction!r}")
    hit = table.get(_descriptor_at(code, m.site))
    if hit is None or hit[:2] != (m.move, m.variant):
        raise MoveError(f"{m.move}/{m.variant} pattern absent at {m.site}")
    return _apply_at(code, m.site, hit[2])


def inverse_of(code_after: PassCode, m: MoveSpec) -> MoveSpec:
    """The MoveSpec undoing m, given the code m produced.

    Rewrites are involutions on their site but the rewritten pattern
    carries its own variant tag, read back from the resulting code.
    """
    if m.direction == "apply":
        hit = _rewrites().get(_descriptor_at(code_after, m.site))
        if hit is None:
            raise MoveError(f"no rewrite pattern at {m.site} after {m.move}")
        return MoveSpec(hit[0], "apply", m.site, hit[1])
    # an insert lands each segment two passes further per segment laid
    # before it on its component, those at one site in template order; a
    # delete collapses it as many back
    step = 2 if m.direction == "insert" else -2
    sites = tuple((ci, i + step * sum(1 for h, (cj, j) in enumerate(m.site)
                                      if cj == ci and (j, h) < (i, k)))
                  for k, (ci, i) in enumerate(m.site))
    if m.direction == "insert":
        return MoveSpec(m.move, "delete", sites, m.variant)
    # delete: re-insert at the collapsed positions (crossing ids are
    # regenerated, so compare the round trip with canonical())
    variant = m.variant
    if len(sites) == 2 and sites[0] == sites[1] and m.site[0] > m.site[1]:
        # adjacent segments collapse onto one site, where _insert lays
        # them in template order: take the variant listing them reversed
        reversed_template = _INSERTS[(m.move, m.variant)][::-1]
        variant = _DELETES[_canonical_descriptor(reversed_template)][1]
    return MoveSpec(m.move, "insert", sites, variant)


def _listed(code: PassCode, inserts: dict, deletes: dict, rewrites: dict) -> list:
    """Every MoveSpec the three tables give on code, sorted."""
    positions = [(ci, i) for ci, comp in enumerate(code.components)
                 for i in range(max(len(comp), 1))]
    out = [MoveSpec(move, "insert", site, variant)
           for (move, variant), template in inserts.items()
           for site in itertools.permutations(positions, len(template))]
    out += _matches(code, deletes, itertools.permutations)
    out += _matches(code, rewrites, itertools.combinations)
    return sorted(out)


def applicable_moves(code: PassCode) -> list:
    """Every applicable catalog move (move, direction, site, variant),
    sorted: the moves of the ids in MOVE_IDS."""
    return _listed(code, *_tables_of(*MOVE_IDS))


@functools.cache
def _tables_of(*moves: str) -> tuple:
    """The insert, delete and rewrite tables of the given move ids."""
    return ({k: t for k, t in _INSERTS.items() if k[0] in moves},
            {d: h for d, h in _DELETES.items() if h[0] in moves},
            {d: h for d, h in _rewrites().items() if h[0] in moves})


def moves_of(code: PassCode, move: str) -> list:
    """The applicable moves with one move id, sorted, at the cost of that
    move's tables only.  Any id of the rewrite table is accepted, so
    `forbidden` and `sR2_reverse` too; for an id of MOVE_IDS this is
    `[m for m in applicable_moves(code) if m.move == move]`."""
    return _listed(code, *_tables_of(move))


# ---------------------------------------------------------------------------
# canonical labels and random codes

def _walk(code: PassCode, root, best=None) -> tuple:
    """The walk from root (ci, i): component ci written from pass i, then
    each component first met through the other pass of a crossing,
    written from that pass, in the order met, with crossings numbered per
    kind from 1 in order of first appearance.  Returns its lines, their
    texts, its count of crossings per kind and the components it met, or
    None at its first line above best's line at the same index: a line
    ends in a newline, which sorts below every character of a line, so
    text order is line-by-line order.  An isomorphism of codes maps the
    walk from a root onto the walk from its image.
    """
    queue, met, ids, counts = [root], {root[0]}, {}, {}
    lines, texts = [], []
    for ci, i in queue:
        comp, line = code.components[ci], []
        for p in comp[i:] + comp[:i]:
            cid = ids.get(p.crossing)
            if cid is None:
                cid = ids[p.crossing] = counts[p.kind] = counts.get(p.kind, 0) + 1
                for cj, j, _ in code.where[p.crossing]:
                    if cj not in met:
                        met.add(cj)
                        queue.append((cj, j))
            line.append(Pass(p.kind, cid, p.role, p.sign))
        text = component_text(line)
        if best is not None:        # tied with best on every line so far
            if text > best[1][len(texts)]:
                return None
            if text < best[1][len(texts)]:
                best = None
        lines.append(line)
        texts.append(text)
    return lines, texts, counts, met


def canonical(code: PassCode) -> PassCode:
    """Normal form that also relabels crossing ids, for comparisons that
    must ignore id choices (e.g. delete-then-reinsert round trips).

    The components that a walk (`_walk`) meets form a block: those joined
    through shared crossings.  A block's form is its least walk text over
    the roots on its shortest components, a choice of roots that an
    isomorphism preserves; a one-component block's form is its least
    relabeled rotation.  The form lists the empty components first, then
    the block forms in text order, each block's crossing ids shifted per
    kind past the ids of the blocks before it.  Isomorphic codes share
    this normal form, and a block costs one walk per pass of its shortest
    components.
    """
    comps = code.components
    lines, forms, seen = [c for c in comps if not c], [], set()
    for ci, comp in enumerate(comps):
        if comp and ci not in seen:
            block = _walk(code, (ci, 0))[3]
            seen |= block
            length = min(len(comps[cj]) for cj in block)
            best = None
            for root in ((cj, i) for cj in sorted(block) if len(comps[cj]) == length
                         for i in range(length)):
                best = _walk(code, root, best) or best
            forms.append(best)
    shift = {}
    for form, _, counts, _ in sorted(forms, key=lambda f: f[1]):
        if shift:                   # the first block keeps its ids
            form = [tuple(Pass(p.kind, p.cid + shift.get(p.kind, 0), p.role, p.sign)
                          for p in line) for line in form]
        lines += form
        for kind, n in counts.items():
            shift[kind] = shift.get(kind, 0) + n
    return PassCode(tuple(lines))


def random_code(budget: dict, seed: int = 0) -> PassCode:
    """Random valid code within per-kind crossing bounds.

    budget keys: 'F', 'S', 'V' bound the number of crossings of each
    kind; 'components' fixes the component count (default 1).  An all-
    zero budget yields the crossing-free unknot.
    """
    rng = random.Random(seed)
    ncomp = max(1, budget.get("components", 1))
    passes = []
    for kind in (FLAT, SING, VIRT):
        count = rng.randint(0, budget.get(kind, 0))
        r1, r2 = _ROLES[kind]
        for cid in range(1, count + 1):
            passes.append(Pass(kind, cid, r1))
            passes.append(Pass(kind, cid, r2))
    rng.shuffle(passes)
    comps = [[] for _ in range(ncomp)]
    for p in passes:
        comps[rng.randrange(ncomp)].append(p)
    return PassCode(tuple(tuple(c) for c in comps))


# ---------------------------------------------------------------------------
# randomized invariance trials

_INSERT_IDS = {move for move, _ in _INSERTS}


def _materialize(desc) -> PassCode:
    """A code realizing a rewrite descriptor, one component per segment."""
    comps = []
    for seg in desc:
        comps.append(tuple(Pass(kind, idx + 1, role) for idx, kind, role in seg))
    return PassCode(tuple(comps))


def _decorate(code: PassCode, rng: random.Random, kinds: str) -> PassCode:
    """Append unrelated crossings after the existing passes so rewrite
    sites keep their positions."""
    comps = [list(c) for c in code.components]
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(kinds)
        cid = max((c for k, c in code.where if k == kind), default=0) + rng.randint(1, 3)
        r1, r2 = _ROLES[kind]
        ci = rng.randrange(len(comps))
        comps[ci] += [Pass(kind, cid, r1), Pass(kind, cid, r2)]
        code = PassCode(tuple(tuple(c) for c in comps))
    if rng.random() < 0.3:
        code = PassCode(tuple(code.components) + ((),))
    return code


@functools.cache
def _rewrite_pool(move: str, kinds: str) -> tuple:
    """The sorted (descriptor, variant) rewrites of a move id whose
    crossings all have kinds in `kinds`."""
    return tuple(sorted((d, v) for d, (_, v, _) in _tables_of(move)[2].items()
                        if all(kind in kinds for seg in d for _, kind, _ in seg)))


def _trial_case(move: str, kinds: str, rng: random.Random):
    """A (code, MoveSpec) pair exercising the given move id."""
    if move in _INSERT_IDS:
        candidates = []
        while not candidates:
            budget = {k: 2 for k in kinds}
            budget["components"] = rng.randint(1, 2)
            code = random_code(budget, seed=rng.randrange(2 ** 30))
            candidates = moves_of(code, move)
        return code, rng.choice(candidates)
    desc, variant = rng.choice(_rewrite_pool(move, kinds))
    code = _decorate(_materialize(desc), rng, kinds)
    site = tuple((ci, 0) for ci in range(len(desc)))
    return code, MoveSpec(move, "apply", site, variant)


def run_move_trials(bundles, trials: int = 500, seed: int = 0) -> dict:
    """Randomized move-invariance suite.

    bundles: sequence of (name, StructureBundle).  Each bundle is lifted
    by `with_trivial_extensions` to the trivial extensions its table
    admits; random codes for it use only the crossing kinds it can then
    color.  Every trial applies one move and its inverse, checking that
    the enhanced invariant is unchanged by the move and that the inverse
    restores the code, up to crossing names (`canonical`) where it is
    not restored exactly.  A trial lists only the moves of its own move
    id (`moves_of`), in the order `applicable_moves` would give them, so
    the draws do not depend on the other moves.  Deterministic in the
    seed.
    """
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    lifted = []
    for name, b in bundles:
        b = b.with_trivial_extensions()
        lifted.append((name, b, FLAT + (SING if b.has_singular else "") + VIRT))

    if not any(SING in kinds for _, _, kinds in lifted):
        raise ValueError("move trials need at least one bundle with a "
                         "singular extension to exercise sR2/sR3")
    rng = random.Random(seed)
    per_move = {m: 0 for m in MOVE_IDS}
    failures = []
    for t in range(trials):
        move = MOVE_IDS[t % len(MOVE_IDS)]
        options = [x for x in lifted if
                   (SING in x[2] or move not in ("sR2", "sR3"))]
        name, bundle, kinds = options[(t // len(MOVE_IDS)) % len(options)]
        code, spec = _trial_case(move, kinds, rng)
        before = enhanced_invariant(extract_relations(code), bundle)
        moved = apply_move(code, spec)
        after = enhanced_invariant(extract_relations(moved), bundle)
        restored = apply_move(moved, inverse_of(moved, spec))
        # only the re-insert undoing a delete draws fresh crossing ids
        ok = before == after and (restored == code or
                                  canonical(restored) == canonical(code))
        per_move[move] += 1
        if not ok:
            failures.append({"trial": t, "bundle": name, "move": spec.move,
                             "direction": spec.direction,
                             "site": list(spec.site), "variant": spec.variant,
                             "code": code.text(),
                             "before": before.as_dict(), "after": after.as_dict()})
    return {"trials": trials, "seed": seed, "per_move": per_move,
            "failures": failures}

"""Reidemeister-style move rewriting on pass codes.

The catalog covers the flat moves fR1/fR2/fR3, the virtual moves
vR1/vR2/vR3, the mixed (virtual-virtual-flat) triangle move, the direct
singular slide sR2, and the flat-flat-singular triangle sR3.  Singular
crossings are never created or removed, so sR2/sR3 exist only as
rewrites while the R1/R2 moves also insert and delete crossings.

A triangle or slide site is matched against a table of sound
configurations.  Soundness of a configuration means: the multiset of
boundary colorings (strand input and output colors admitting a
consistent internal coloring) is identical on both sides of the
rewrite, for every valid structure bundle, which makes the coloring
sets of the two codes correspond bijectively.  The triangle table is
generated from a two-part rule (see `_sound`), and the test suite
re-derives it by exhaustive search over all role/order assignments,
checked against a diverse set of bundles.  The flat-flat-virtual
triangle is the forbidden move: no role assignment for it is sound,
and `apply_forbidden` exposes it separately so tests can demonstrate
that it changes invariants.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .diagram import (FLAT, SING, VIRT, CodeError, Pass, PassCode,
                      component_text)

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
# insert / delete templates
#
# Each template lists the inserted segments, one per strand, as
# (crossing placeholder, kind, role) pairs.  All entries are sound:
# the inserted relations have a unique internal solution whose outputs
# equal the inputs (fR1 by axioms 0 and i, parallel fR2 by axiom ii,
# antiparallel fR2 and the virtual moves checked exhaustively).

_INSERTS = {
    ("fR1", "sup_first"): ((("X", FLAT, "sup"), ("X", FLAT, "sub")),),
    ("fR1", "sub_first"): ((("X", FLAT, "sub"), ("X", FLAT, "sup")),),
    ("fR2", "direct"): ((("X", FLAT, "sup"), ("Y", FLAT, "sub")),
                        (("X", FLAT, "sub"), ("Y", FLAT, "sup"))),
    ("fR2", "mirror"): ((("X", FLAT, "sub"), ("Y", FLAT, "sup")),
                        (("X", FLAT, "sup"), ("Y", FLAT, "sub"))),
    ("fR2", "reverse"): ((("X", FLAT, "sup"), ("Y", FLAT, "sub")),
                         (("Y", FLAT, "sup"), ("X", FLAT, "sub"))),
    ("fR2", "reverse_mirror"): ((("X", FLAT, "sub"), ("Y", FLAT, "sup")),
                                (("Y", FLAT, "sub"), ("X", FLAT, "sup"))),
    ("vR1", "vp_first"): ((("X", VIRT, "v+"), ("X", VIRT, "v-")),),
    ("vR1", "vm_first"): ((("X", VIRT, "v-"), ("X", VIRT, "v+")),),
    ("vR2", "direct"): ((("X", VIRT, "v+"), ("Y", VIRT, "v-")),
                        (("X", VIRT, "v-"), ("Y", VIRT, "v+"))),
    ("vR2", "mirror"): ((("X", VIRT, "v-"), ("Y", VIRT, "v+")),
                        (("X", VIRT, "v+"), ("Y", VIRT, "v-"))),
    ("vR2", "reverse"): ((("X", VIRT, "v+"), ("Y", VIRT, "v-")),
                         (("Y", VIRT, "v+"), ("X", VIRT, "v-"))),
    ("vR2", "reverse_mirror"): ((("X", VIRT, "v-"), ("Y", VIRT, "v+")),
                                (("Y", VIRT, "v-"), ("X", VIRT, "v+"))),
}


# ---------------------------------------------------------------------------
# rewrite configurations
#
# A triangle configuration is kinds:firsts:prims where kinds gives the
# crossing kinds at A=(strand0,strand1), B=(strand0,strand2),
# C=(strand1,strand2); firsts says per strand which of its two
# crossings it meets first; prims says per crossing which strand takes
# the sup (or v+) role.

_TRIANGLE_MOVE = {"FFF": "fR3", "SFF": "sR3", "FSF": "sR3", "FFS": "sR3",
                  "VVV": "vR3", "FVV": "mixed", "VFV": "mixed", "VVF": "mixed"}

_BITS = tuple(itertools.product((0, 1), repeat=3))


def _triangle_tokens(families, keep) -> str:
    """Space-separated kinds:firsts:prims tokens of the configurations
    of the families that keep(kinds, firsts, prims) accepts, firsts and
    prims as bit triples."""
    return " ".join(f"{k}:{f0}{f1}{f2}:{p0}{p1}{p2}"
                    for k in families
                    for f0, f1, f2 in _BITS for p0, p1, p2 in _BITS
                    if keep(k, (f0, f1, f2), (p0, p1, p2)))


def _sound(kinds: str, f: tuple, p: tuple) -> bool:
    """Every configuration of a family with a virtual crossing is sound;
    one of flat and singular crossings exactly when p0^p1 = f1^f2 and
    p0^p2 = f0^f2 (f the firsts, p the prims)."""
    return "V" in kinds or (p[0] ^ p[1] == f[1] ^ f[2] and p[0] ^ p[2] == f[0] ^ f[2])


# exactly the sound configurations of the catalog's families; the test
# suite re-derives the set by exhaustive boundary-solution search
_SOUND_TRIANGLES = _triangle_tokens(_TRIANGLE_MOVE, _sound)

# the two sides of the direct singular slide: the flat crossing moves
# from before the singular crossing to after it on both strands
_SLIDE_SIDES = (
    ("flat_first", ((("X", FLAT, "sup"), ("Y", SING, "sub")),
                    (("X", FLAT, "sub"), ("Y", SING, "sup")))),
    ("sing_first", ((("X", SING, "sup"), ("Y", FLAT, "sub")),
                    (("X", SING, "sub"), ("Y", FLAT, "sup")))),
)

# antiparallel slide (the strands meet the two crossings in opposite
# orders): sound by boundary-solution equivalence, but kept out of the
# primitive catalog as the reverse singular R2 derived move
_REVERSE_SLIDE_SIDES = (
    ("sup_lead", ((("X", FLAT, "sup"), ("Y", SING, "sub")),
                  (("Y", SING, "sup"), ("X", FLAT, "sub")))),
    ("sub_lead", ((("X", FLAT, "sub"), ("Y", SING, "sup")),
                  (("Y", SING, "sub"), ("X", FLAT, "sup")))),
)

_CROSS_STRANDS = {"A": (0, 1), "B": (0, 2), "C": (1, 2)}
_STRAND_CROSSINGS = {0: "AB", 1: "AC", 2: "BC"}
_PRIMARY_ROLES = {FLAT: ("sup", "sub"), SING: ("sup", "sub"), VIRT: ("v+", "v-")}


def _config_strands(kinds: str, firsts: str, prims: str) -> list:
    """Expand a kinds:firsts:prims config into per-strand pass templates."""
    kind_of = dict(zip("ABC", kinds))
    roles = {}
    for ci, cx in enumerate("ABC"):
        p, q = _PRIMARY_ROLES[kind_of[cx]]
        s_pair = _CROSS_STRANDS[cx]
        bit = int(prims[ci])
        roles[(cx, s_pair[bit])] = p
        roles[(cx, s_pair[1 - bit])] = q
    strands = []
    for s in range(3):
        xs = _STRAND_CROSSINGS[s]
        order = xs if firsts[s] == "0" else xs[::-1]
        strands.append(tuple((cx, kind_of[cx], roles[(cx, s)]) for cx in order))
    return strands


def _canonical_descriptor(strands) -> tuple:
    """Relabel crossings by first appearance across the ordered strands."""
    names = {}
    desc = []
    for st in strands:
        seg = []
        for cx, kind, role in st:
            idx = names.setdefault(cx, len(names))
            seg.append((idx, kind, role))
        desc.append(tuple(seg))
    return tuple(desc)


def _expand_table(entries, action: str) -> dict:
    """Close a config list under strand reordering, keyed by descriptor."""
    table = {}
    for move, variant, strands in entries:
        for perm in itertools.permutations(range(len(strands))):
            desc = _canonical_descriptor([strands[i] for i in perm])
            table.setdefault(desc, (move, variant, action))
    return table


def _triangle_entries(packed: str):
    for tok in packed.split():
        kinds, firsts, prims = tok.split(":")
        yield (_TRIANGLE_MOVE.get(kinds, "forbidden"), tok,
               _config_strands(kinds, firsts, prims))


def _slide_entries(sides, move: str):
    for variant, strands in sides:
        yield (move, variant, strands)


_REWRITES = _expand_table(_triangle_entries(_SOUND_TRIANGLES), "swap")
_REWRITES.update(_expand_table(_slide_entries(_SLIDE_SIDES, "sR2"), "slide"))

# forbidden flat-flat-virtual triangles, every role/order assignment;
# deliberately not merged into _REWRITES
_FORBIDDEN = _expand_table(
    _triangle_entries(_triangle_tokens(("FFV", "FVF", "VFF"), lambda *_: True)),
    "swap")

_REVERSE_SLIDE = _expand_table(
    _slide_entries(_REVERSE_SLIDE_SIDES, "sR2_reverse"), "slide")


# ---------------------------------------------------------------------------
# matching

def _semiarc_positions(code: PassCode) -> list:
    out = []
    for ci, comp in enumerate(code.components):
        for i in range(max(len(comp), 1)):
            out.append((ci, i))
    return out


def _segments(code: PassCode) -> list:
    """Non-wrapping adjacent pass pairs whose passes sit at distinct
    crossings (candidate rewrite strands)."""
    out = []
    for ci, comp in enumerate(code.components):
        for i in range(len(comp) - 1):
            if comp[i].crossing != comp[i + 1].crossing:
                out.append((ci, i))
    return out


def _kink_sites(code: PassCode, kind: str) -> list:
    """Adjacent pairs that are the two passes of one crossing of `kind`."""
    out = []
    for ci, comp in enumerate(code.components):
        for i in range(len(comp) - 1):
            if comp[i].kind == kind and comp[i].crossing == comp[i + 1].crossing:
                out.append((ci, i))
    return out


def _disjoint(sites) -> bool:
    for (c1, i1), (c2, i2) in itertools.combinations(sites, 2):
        if c1 == c2 and abs(i1 - i2) < 2:
            return False
    return True


def _site_passes(code: PassCode, site) -> list:
    """The two passes of each segment site, as one list per segment."""
    segs = []
    for ci, i in site:
        comp = code.components[ci]
        if i < 0 or i + 1 >= len(comp):
            raise MoveError(f"no segment at {(ci, i)}")
        segs.append((comp[i], comp[i + 1]))
    return segs


def _descriptor_at(code: PassCode, site) -> tuple:
    segs = _site_passes(code, site)
    crossings = [p.crossing for seg in segs for p in seg]
    for x in set(crossings):
        if crossings.count(x) != 2:
            raise MoveError(f"crossing {x} does not occur twice in the site")
    return _canonical_descriptor(
        [tuple((p.crossing, p.kind, p.role) for p in seg) for seg in segs])


def _match_segment(passes, template, binding) -> bool:
    for p, (ph, kind, role) in zip(passes, template):
        if p.kind != kind or p.role != role:
            return False
        if ph in binding:
            if binding[ph] != p.crossing:
                return False
        elif p.crossing in binding.values():
            return False
        else:
            binding[ph] = p.crossing
    return True


def _delete_matches(code: PassCode, template) -> list:
    """Sites where the insert template's segments appear verbatim."""
    segs = _segments(code) + _kink_sites(code, template[0][0][1])
    found = []
    if len(template) == 1:
        for s in segs:
            if _match_segment(_site_passes(code, (s,))[0], template[0], {}):
                found.append((s,))
        return found
    for s0, s1 in itertools.permutations(segs, 2):
        if not _disjoint((s0, s1)):
            continue
        binding = {}
        (p0, p1) = _site_passes(code, (s0, s1))
        if _match_segment(p0, template[0], binding) and \
                _match_segment(p1, template[1], binding):
            found.append((s0, s1))
    return found


def _rewrite_matches(code: PassCode, table) -> list:
    """(site, move, variant, action) for every table descriptor present."""
    segs = _segments(code)
    found = []
    sizes = {len(d) for d in table}
    for k in sorted(sizes):
        for combo in itertools.combinations(segs, k):
            if not _disjoint(combo):
                continue
            try:
                desc = _descriptor_at(code, combo)
            except MoveError:
                continue
            hit = table.get(desc)
            if hit:
                found.append((combo, *hit))
    return found


# ---------------------------------------------------------------------------
# application

def _fresh_ids(code: PassCode, template) -> dict:
    used = {}
    for kind, cid in code.crossings():
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


def _delete(code: PassCode, m: MoveSpec) -> PassCode:
    template = _INSERTS.get((m.move, m.variant))
    if template is None:
        raise MoveError(f"unknown delete {m.move}/{m.variant}")
    if not _disjoint(m.site):
        raise MoveError("delete sites overlap")
    binding = {}
    segs = _site_passes(code, m.site)
    if len(segs) != len(template) or not all(
            _match_segment(seg, tmpl, binding)
            for seg, tmpl in zip(segs, template)):
        raise MoveError(f"{m.move}/{m.variant} pattern absent at {m.site}")
    drop = sorted(((ci, j) for ci, i in m.site for j in (i, i + 1)), reverse=True)
    comps = [list(c) for c in code.components]
    for ci, j in drop:
        del comps[ci][j]
    return PassCode(tuple(tuple(c) for c in comps))


_FLIP = {"sup": "sub", "sub": "sup"}


def _apply_rewrite(code: PassCode, site, action: str) -> PassCode:
    comps = [list(c) for c in code.components]
    for ci, i in site:
        a, b = comps[ci][i], comps[ci][i + 1]
        if action == "slide":
            a = Pass(a.kind, a.cid, _FLIP[a.role])
            b = Pass(b.kind, b.cid, _FLIP[b.role])
        comps[ci][i], comps[ci][i + 1] = b, a
    return PassCode(tuple(tuple(c) for c in comps))


def apply_move(code: PassCode, m: MoveSpec) -> PassCode:
    """Apply one catalog move; raises MoveError on pattern mismatch.

    Rewrites (direction `apply`) are involutive at their site, so the
    same MoveSpec undoes them; inserts are undone by the delete of the
    same variant at the landing site (see inverse_of).
    """
    if m.direction == "insert":
        return _insert(code, m)
    if m.direction == "delete":
        return _delete(code, m)
    if m.direction != "apply":
        raise MoveError(f"unknown direction {m.direction!r}")
    desc = _descriptor_at(code, m.site)
    hit = _REWRITES.get(desc)
    if hit is None or hit[0] != m.move:
        raise MoveError(f"{m.move} pattern absent at {m.site}")
    move, variant, action = hit
    if variant != m.variant:
        raise MoveError(f"variant mismatch at {m.site}: found {variant}")
    return _apply_rewrite(code, m.site, action)


def inverse_of(code_after: PassCode, m: MoveSpec) -> MoveSpec:
    """The MoveSpec undoing m, given the code m produced.

    Rewrites are involutions on their site but the rewritten pattern
    carries its own variant tag, read back from the resulting code.
    """
    if m.direction == "apply":
        hit = _REWRITES.get(_descriptor_at(code_after, m.site))
        if hit is None:
            raise MoveError(f"no rewrite pattern at {m.site} after {m.move}")
        return MoveSpec(hit[0], "apply", m.site, hit[1])
    if m.direction == "insert":
        landed = []
        for ci, i in m.site:
            shift = 2 * sum(1 for cj, j in m.site if cj == ci and j < i)
            landed.append((ci, i + shift))
        return MoveSpec(m.move, "delete", tuple(landed), m.variant)
    # delete: re-insert at the collapsed positions (crossing ids are
    # regenerated, so compare the round trip with canonical())
    sites = []
    for ci, i in m.site:
        shift = 2 * sum(1 for cj, j in m.site if cj == ci and j < i)
        sites.append((ci, i - shift))
    variant = m.variant
    if len(sites) == 2 and sites[0] == sites[1] and m.site[0] > m.site[1]:
        # adjacent segments collapse onto one site, where _insert lays
        # them in template order: take the variant listing them reversed
        variant = _swapped_variant(m.move, m.variant)
    return MoveSpec(m.move, "insert", tuple(sites), variant)


def _swapped_variant(move: str, variant: str) -> str:
    """The variant of a two-strand insert whose template lists the same
    segments in the other order."""
    want = _canonical_descriptor(_INSERTS[(move, variant)][::-1])
    return next(v for (mv, v), template in sorted(_INSERTS.items())
                if mv == move and _canonical_descriptor(template) == want)


def applicable_moves(code: PassCode) -> list:
    """Every applicable (move, direction, site, variant), sorted."""
    out = []
    positions = _semiarc_positions(code)
    for (move, variant), template in sorted(_INSERTS.items()):
        if len(template) == 1:
            out.extend(MoveSpec(move, "insert", (p,), variant) for p in positions)
        else:
            out.extend(MoveSpec(move, "insert", (p, q), variant)
                       for p in positions for q in positions if p != q)
        out.extend(MoveSpec(move, "delete", site, variant)
                   for site in _delete_matches(code, template))
    for site, move, variant, _ in _rewrite_matches(code, _REWRITES):
        out.append(MoveSpec(move, "apply", site, variant))
    return sorted(out)


def forbidden_sites(code: PassCode) -> list:
    """Sites where the forbidden flat-flat-virtual triangle matches."""
    return sorted(
        MoveSpec("forbidden", "apply", site, variant)
        for site, _, variant, _ in _rewrite_matches(code, _FORBIDDEN))


def apply_forbidden(code: PassCode, m: MoveSpec) -> PassCode:
    """Apply the forbidden move; used only to demonstrate non-invariance."""
    desc = _descriptor_at(code, m.site)
    if _FORBIDDEN.get(desc, (None, None))[1] != m.variant:
        raise MoveError(f"forbidden pattern absent at {m.site}")
    return _apply_rewrite(code, m.site, "swap")


def reverse_slide_sites(code: PassCode) -> list:
    """Sites of the reverse singular R2 (a derived move, not catalog)."""
    return sorted(
        MoveSpec("sR2_reverse", "apply", site, variant)
        for site, _, variant, _ in _rewrite_matches(code, _REVERSE_SLIDE))


def apply_reverse_slide(code: PassCode, m: MoveSpec) -> PassCode:
    desc = _descriptor_at(code, m.site)
    if _REVERSE_SLIDE.get(desc, (None, None))[1] != m.variant:
        raise MoveError(f"reverse slide pattern absent at {m.site}")
    return _apply_rewrite(code, m.site, "slide")


# ---------------------------------------------------------------------------
# canonical labels, random codes, random moves

def canonical(code: PassCode) -> PassCode:
    """Normal form that also relabels crossing ids, for comparisons that
    must ignore id choices (e.g. delete-then-reinsert round trips).

    The form is the code of least text() over every rotation of each
    component and every reordering of equal-length components, with
    crossings renumbered per kind in order of first appearance.  An
    isomorphism of codes can only map components of equal length onto
    each other, so isomorphic codes share this normal form.

    The components fill fixed slots, sorted by length, one text line
    each.  A line ends in a newline, which sorts below every character
    of a line, so the least text has the least first line, then the least
    second line among the codes with that first line, and so on.  Line k
    depends only on the numbering left by lines 1..k-1 and on which
    unused component of slot k's length goes there, in which rotation.
    The search fills the slots in order and keeps every state (the used
    components, the crossing numbering and a per-kind counter) that
    reaches the least line.  The numbering turns a line back into the
    passes it came from, so two kept states never coincide, and empty
    components, which are all alike, are set aside first.  Only partial
    labelings that tie survive: a code with little symmetry keeps a state
    or two, while k components that differ only in crossing names (k
    disjoint kinks, say) tie in every order and keep up to k! states.
    """
    comps = [c for c in sorted(code.components, key=len) if c]
    lines = [()] * (len(code.components) - len(comps))
    states = [(frozenset(), {}, {})]
    for length in map(len, comps):
        block = [j for j, c in enumerate(comps) if len(c) == length]
        best, survivors = None, []
        for used, ids, counts in states:
            for j in block:
                if j in used:
                    continue
                comp = comps[j]
                for r in range(length):
                    new_ids, new_counts, line = dict(ids), dict(counts), []
                    for p in comp[r:] + comp[:r]:
                        cid = new_ids.get(p.crossing)
                        if cid is None:
                            cid = new_counts[p.kind] = new_counts.get(p.kind, 0) + 1
                            new_ids[p.crossing] = cid
                        line.append(Pass(p.kind, cid, p.role, p.sign))
                    text = component_text(line)
                    if best is None or text < best[0]:
                        best, survivors = (text, tuple(line)), []
                    if text == best[0]:
                        survivors.append((used | {j}, new_ids, new_counts))
        lines.append(best[1])
        states = survivors
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
        r1, r2 = _PRIMARY_ROLES[kind]
        for cid in range(1, count + 1):
            passes.append(Pass(kind, cid, r1))
            passes.append(Pass(kind, cid, r2))
    rng.shuffle(passes)
    comps = [[] for _ in range(ncomp)]
    for p in passes:
        comps[rng.randrange(ncomp)].append(p)
    return PassCode(tuple(tuple(c) for c in comps))


def random_applicable_move(code: PassCode, seed: int = 0):
    """Uniform choice among applicable (move, site, variant) triples,
    deterministic in the seed; None when no move applies."""
    moves = applicable_moves(code)
    if not moves:
        return None
    return random.Random(seed).choice(moves)


# ---------------------------------------------------------------------------
# randomized invariance trials

_REWRITE_IDS = ("fR3", "vR3", "mixed", "sR2", "sR3")
_INSERT_IDS = ("fR1", "fR2", "vR1", "vR2")


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
        cid = max((c for k, c in code.crossings() if k == kind), default=0) \
            + rng.randint(1, 3)
        r1, r2 = _PRIMARY_ROLES[kind]
        ci = rng.randrange(len(comps))
        comps[ci] += [Pass(kind, cid, r1), Pass(kind, cid, r2)]
        code = PassCode(tuple(tuple(c) for c in comps))
    if rng.random() < 0.3:
        code = PassCode(tuple(code.components) + ((),))
    return code


def _descriptors_by_move() -> dict:
    by_move = {}
    for desc, (move, variant, _) in sorted(_REWRITES.items()):
        by_move.setdefault(move, []).append((desc, variant))
    return by_move


def _trial_case(move: str, kinds: str, rng: random.Random, by_move: dict):
    """A (code, MoveSpec) pair exercising the given move id."""
    if move in _INSERT_IDS:
        candidates = []
        while not candidates:
            budget = {k: 2 for k in kinds}
            budget["components"] = rng.randint(1, 2)
            code = random_code(budget, seed=rng.randrange(2 ** 30))
            candidates = [m for m in applicable_moves(code) if m.move == move]
        return code, rng.choice(candidates)
    pool = [(d, v) for d, v in by_move[move]
            if all(kind in kinds for seg in d for _, kind, _ in seg)]
    desc, variant = rng.choice(pool)
    code = _decorate(_materialize(desc), rng, kinds)
    site = tuple((ci, 0) for ci in range(len(desc)))
    return code, MoveSpec(move, "apply", site, variant)


def run_move_trials(bundles, trials: int = 500, seed: int = 0) -> dict:
    """Randomized move-invariance suite.

    bundles: sequence of (name, StructureBundle).  Each bundle is lifted
    by `with_trivial_extensions` to the trivial extensions its table
    admits; random codes for it use only the crossing kinds it can then
    color.  Every
    trial applies one move and its inverse, checking that the enhanced
    invariant is unchanged by the move and that the inverse restores
    the code.  Deterministic in the seed.
    """
    from .diagram import extract_relations
    from .present import enhanced_invariant

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
    by_move = _descriptors_by_move()
    ids = [m for m in MOVE_IDS]
    for t in range(trials):
        move = ids[t % len(ids)]
        options = [x for x in lifted if
                   (SING in x[2] or move not in ("sR2", "sR3"))]
        name, bundle, kinds = options[(t // len(ids)) % len(options)]
        code, spec = _trial_case(move, kinds, rng, by_move)
        before = enhanced_invariant(extract_relations(code), bundle)
        moved = apply_move(code, spec)
        after = enhanced_invariant(extract_relations(moved), bundle)
        restored = apply_move(moved, inverse_of(moved, spec))
        ok = (before == after and
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

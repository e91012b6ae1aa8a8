"""Classical Reidemeister rewrites on signed Gauss codes.

Kink moves (RI) insert or delete an adjacent same-crossing pass pair.
Poke moves (RII) insert or delete an opposite-sign crossing pair whose over
passes are adjacent on one strand and whose under passes are adjacent on
another.  Triple-slide moves (RIII) swap the two adjacent passes on each of
three strands meeting pairwise in three crossings.

The four virtual moves need no operation at all: a signed Gauss code only
records real crossings, so VRI, VRII, VRIII and VRIV all act as the
identity on this representation (see VIRTUAL_MOVES below).

RIII legality: name the three strands T (over at both its crossings),
M (under then over, in some order) and B (under at both), and the three
crossings TM, TB, MB by the strands they join.  A triple-slide site is
legal when, for each strand, which crossing it meets first, together with
the three crossing signs, matches a row of _RIII_ROWS.  The rows were
computed by sliding one of three pairwise-crossing oriented straight
strands over the opposite crossing in every height order and orientation;
the variant index attached to a row is the number (1..8) of the
weight-sum identity that the move at such a site realizes, so each index
covers the two rows that are the two sides of one move.

The moves fall in two families, each with one table.  The add kinds
(RI-add, RII-add) are rows of _ADD_LAYOUTS, which gives the pass pair each
variant puts on each of its arcs and so the fresh crossing ids it takes.
The local kinds (RI-remove, RII-remove, RIII) are decided by one scan,
_local_moves, which reads each adjacent pass pair once and looks triple
slides up in _RIII_ROWS.  enumerate_moves runs the scan over every
position, and random_walk once, then only next to each move (_rescan).
_edits checks a move of either kind against a diagram, scanning only its
first site, and describes it as slice edits of the pass sequences, which
Diagram._rewritten applies without re-validating and _rescan reads.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

from .diagram import _ID_LIMIT, OVER, UNDER, Diagram, Pass
from .errors import UpDownError

RI_ADD = "RI-add"
RI_REMOVE = "RI-remove"
RII_ADD = "RII-add"
RII_REMOVE = "RII-remove"
RIII = "RIII"
MOVE_KINDS = frozenset({RI_ADD, RI_REMOVE, RII_ADD, RII_REMOVE, RIII})
_LOCAL_KINDS = frozenset({RI_REMOVE, RII_REMOVE, RIII})
_descriptor_key = attrgetter("kind", "sites", "variant")  # sort key of descriptor lists

# Identity moves on this representation; listed for documentation only.
VIRTUAL_MOVES = ("VRI", "VRII", "VRIII", "VRIV")


class MoveError(UpDownError):
    pass


class MoveDescriptor(NamedTuple):
    """A concrete applicable rewrite.

    kind: one of MOVE_KINDS.
    variant: "OU+"-style kink spec for RI, "parallel+"-style pattern and
        first-crossing sign for RII, identity number 1..8 for RIII.
    sites: (component, position) anchors; one for RI, the over-strand then
        under-strand arcs for RII, the T, M, B pair starts for RIII.
    """

    kind: str
    variant: str | int
    sites: tuple[tuple[int, int], ...]


# kind -> variant -> for each arc of the move (RI: its one arc; RII: the
# over-strand arc, then the under-strand arc), the adjacent pass pair put
# there, each pass as (fresh-id offset, role, sign); offset 0 is max id + 1.
_ADD_LAYOUTS = {
    RI_ADD: {
        "OU+": (((0, OVER, 1), (0, UNDER, 1)),),
        "OU-": (((0, OVER, -1), (0, UNDER, -1)),),
        "UO+": (((0, UNDER, 1), (0, OVER, 1)),),
        "UO-": (((0, UNDER, -1), (0, OVER, -1)),),
    },
    RII_ADD: {
        "antiparallel+": (((0, OVER, 1), (1, OVER, -1)), ((1, UNDER, -1), (0, UNDER, 1))),
        "antiparallel-": (((0, OVER, -1), (1, OVER, 1)), ((1, UNDER, 1), (0, UNDER, -1))),
        "parallel+": (((0, OVER, 1), (1, OVER, -1)), ((0, UNDER, 1), (1, UNDER, -1))),
        "parallel-": (((0, OVER, -1), (1, OVER, 1)), ((0, UNDER, -1), (1, UNDER, 1))),
    },
}
_RI_VARIANTS = tuple(_ADD_LAYOUTS[RI_ADD])
_RII_VARIANTS = tuple(_ADD_LAYOUTS[RII_ADD])
# the number of fresh crossing ids each add kind takes, read off its layouts
_FRESH_IDS = {kind: 1 + max(o for arcs in layouts.values() for pair in arcs for o, _, _ in pair)
              for kind, layouts in _ADD_LAYOUTS.items()}

# (T first crossing, M first crossing, B first crossing, sign TM, TB, MB)
# -> weight identity number.  Two rows per number: the move and its inverse.
_RIII_ROWS = {
    ("TB", "MB", "MB", -1, -1, -1): 2,
    ("TB", "MB", "MB", 1, 1, 1): 5,
    ("TB", "MB", "TB", -1, 1, 1): 4,
    ("TB", "MB", "TB", 1, -1, -1): 7,
    ("TB", "TM", "MB", -1, 1, -1): 8,
    ("TB", "TM", "MB", 1, -1, 1): 3,
    ("TB", "TM", "TB", -1, -1, 1): 6,
    ("TB", "TM", "TB", 1, 1, -1): 1,
    ("TM", "MB", "MB", -1, -1, 1): 6,
    ("TM", "MB", "MB", 1, 1, -1): 1,
    ("TM", "MB", "TB", -1, 1, -1): 8,
    ("TM", "MB", "TB", 1, -1, 1): 3,
    ("TM", "TM", "MB", -1, 1, 1): 4,
    ("TM", "TM", "MB", 1, -1, -1): 7,
    ("TM", "TM", "TB", -1, -1, -1): 2,
    ("TM", "TM", "TB", 1, 1, 1): 5,
}


def _sign_char(sign: int) -> str:
    return "+" if sign > 0 else "-"


def _local_moves(d: Diagram, kinds, k: int, positions) -> list[MoveDescriptor]:
    """RI-remove, RII-remove and RIII descriptors of the requested kinds
    whose first site is (k, p) for some p in positions.

    This is the only legality rule for the three kinds: enumeration scans
    every position and apply_move scans only a descriptor's first site.
    Pair (p, p+1) of component k is read once: as a kink when both passes
    share a crossing, otherwise, when both run over, as the over pair of a
    poke and as the T pair of a triple slide.
    """
    components = d.components
    under_at = d._under_at  # bulk scan; ids are known valid
    comp = components[k]
    size = len(comp)
    out = []
    if size < 2:
        return out
    for p in positions:
        a, b = comp[p], comp[(p + 1) % size]
        if a.crossing == b.crossing:
            if RI_REMOVE in kinds:
                out.append(MoveDescriptor(
                    RI_REMOVE, f"{a.role}{b.role}{_sign_char(a.sign)}", ((k, p),)))
            continue
        if a.role != OVER or b.role != OVER:
            continue
        if RII_REMOVE in kinds and a.sign == -b.sign:
            # the under passes of a then b (parallel), or of b then a
            ku, pu = under_at[a.crossing]
            under = components[ku]
            nxt, prv = (pu + 1) % len(under), (pu - 1) % len(under)
            for pattern, start, other in (("parallel", pu, nxt), ("antiparallel", prv, prv)):
                pas = under[other]
                if other != pu and pas.role == UNDER and pas.crossing == b.crossing:
                    out.append(MoveDescriptor(
                        RII_REMOVE, f"{pattern}{_sign_char(a.sign)}", ((k, p), (ku, start))))
        if RIII not in kinds:
            continue
        for t_first, tm_pass, tb_pass in (("TM", a, b), ("TB", b, a)):
            tm, tb = tm_pass.crossing, tb_pass.crossing
            k_mid, pu = under_at[tm]
            mid = components[k_mid]
            nxt, prv = (pu + 1) % len(mid), (pu - 1) % len(mid)
            # M runs under TM then over MB, or over MB then under TM
            for m_first, anchor_m, other in (("TM", pu, nxt), ("MB", prv, prv)):
                mb_pass = mid[other]
                if other == pu or mb_pass.role != OVER or mb_pass.crossing in (tm, tb):
                    continue
                k_low, p_tb = under_at[tb]
                k_low2, p_mb = under_at[mb_pass.crossing]
                if k_low2 != k_low:
                    continue
                low_size = len(components[k_low])
                # not elif: a two-pass bottom strand is adjacent both ways round
                for b_first, anchor_b, after in (("TB", p_tb, p_mb), ("MB", p_mb, p_tb)):
                    if (anchor_b + 1) % low_size != after:
                        continue
                    variant = _RIII_ROWS.get((t_first, m_first, b_first, tm_pass.sign,
                                              tb_pass.sign, mb_pass.sign))
                    if variant is not None:
                        out.append(MoveDescriptor(
                            RIII, variant, ((k, p), (k_mid, anchor_m), (k_low, anchor_b))))
    return out


class _MoveIndex:
    """Counts and positional access for the moves of one diagram.

    Index i enumerates, in order, the RI-add block (arcs major, variants
    minor), the RI-remove descriptors, the RII-add block (ordered arc pairs
    major, variants minor) and the RII-remove then RIII descriptors; this
    matches the order of enumerate_moves exactly.  local, when given, is the
    diagram's sorted RI-remove, RII-remove and RIII list, which random_walk
    carries from step to step, rescanning only the pass pairs next to the
    last move (_rescan); otherwise every position is scanned.
    """

    def __init__(self, d: Diagram, kinds, local=None):
        bad = set(kinds) - MOVE_KINDS
        if bad:
            raise MoveError(f"unknown move kinds: {sorted(bad)}")
        # arc i is (k, i - starts[k]) for the last k with starts[k] <= i
        self.starts = list(accumulate((d.arc_count(k) for k in range(d.num_components)),
                                      initial=0))
        n_arcs = self.starts[-1]
        room = _ID_LIMIT - 1 - d.max_crossing_id()
        self.ri_add = 4 * n_arcs if RI_ADD in kinds and _FRESH_IDS[RI_ADD] <= room else 0
        self.rii_add = (4 * n_arcs * (n_arcs - 1)
                        if RII_ADD in kinds and _FRESH_IDS[RII_ADD] <= room else 0)
        if local is None:
            local = []
            if kinds & _LOCAL_KINDS:
                for k, comp in enumerate(d.components):
                    local += _local_moves(d, kinds, k, range(len(comp)))
            # RI-remove < RII-remove < RIII in the key, so the sort splits by kind
            local.sort(key=_descriptor_key)
        self.local = local
        n_ri = sum(mv.kind == RI_REMOVE for mv in local)
        self.ri_removes, self.rest = local[:n_ri], local[n_ri:]
        self.total = self.ri_add + self.rii_add + len(local)

    def _arc(self, i: int) -> tuple[int, int]:
        k = bisect_right(self.starts, i) - 1
        return k, i - self.starts[k]

    def descriptor(self, idx: int) -> MoveDescriptor:
        if idx < self.ri_add:
            arc, var = divmod(idx, 4)
            return MoveDescriptor(RI_ADD, _RI_VARIANTS[var], (self._arc(arc),))
        idx -= self.ri_add
        if idx < len(self.ri_removes):
            return self.ri_removes[idx]
        idx -= len(self.ri_removes)
        if idx < self.rii_add:
            pair, var = divmod(idx, 4)
            i, r = divmod(pair, self.starts[-1] - 1)
            j = r if r < i else r + 1
            return MoveDescriptor(RII_ADD, _RII_VARIANTS[var], (self._arc(i), self._arc(j)))
        return self.rest[idx - self.rii_add]


def _rescan(old: Diagram, new: Diagram, edits, kinds,
            local: list[MoveDescriptor]) -> list[MoveDescriptor]:
    """The sorted local descriptors of new, from those of old (local) and the
    slice edits (_edits) that turned old into new.

    A local descriptor's legality depends only on the passes of its pairs
    and on their adjacency.  A cached descriptor survives, at its passes'
    new positions, when each of its pairs is still adjacent.  A pair that
    became adjacent has both passes on touched crossings: an edit's new
    passes and its old passes at start-1..stop (for an add, the two either
    side of its cut, whose pair alone it breaks).  Each pair of a site holds
    a crossing whose over pass lies in the site's first pair (RI: the kink;
    RII: a or b; RIII: TM in the M pair, TB in the B pair), touched when the
    pair is new, so scanning at q-1 and q, for the over pass q of every
    touched crossing, finds every new site.
    """
    touched = set()
    for k, start, stop, passes in edits:
        comp = old.components[k]
        touched.update(comp[i % len(comp)].crossing for i in range(start - 1, stop + 1) if comp)
        touched.update(pas.crossing for pas in passes)
    rescanned: dict[int, set[int]] = {}
    for x in touched & new._over_at.keys():
        k, q = new._over_at[x]
        rescanned.setdefault(k, set()).update(((q - 1) % len(new.components[k]), q))
    out = []
    for cached in local:
        sites = []
        for k, p in cached.sites:
            comp, now = old.components[k], new.components[k]
            a = comp[p]
            at = (new._over_at if a.role == OVER else new._under_at).get(a.crossing)
            if at is None or now[(at[1] + 1) % len(now)] != comp[(p + 1) % len(comp)]:
                break
            sites.append(at)
        else:
            sites = tuple(sites)
            k, p = sites[0]
            if p not in rescanned.get(k, ()):
                out.append(cached if sites == cached.sites
                           else MoveDescriptor(cached.kind, cached.variant, sites))
    for k, positions in rescanned.items():
        out += _local_moves(new, kinds, k, positions)
    out.sort(key=_descriptor_key)
    return out


def enumerate_moves(d: Diagram, kinds) -> list[MoveDescriptor]:
    """All applicable descriptors of the requested kinds, sorted by
    (kind, sites, variant)."""
    index = _MoveIndex(d, frozenset(kinds))
    return [index.descriptor(i) for i in range(index.total)]


def _require(condition: bool, message: str, *args):
    # every applied move passes here, so message % args is built only on failure
    if not condition:
        raise MoveError(f"stale or invalid move descriptor: {message % args}")


def _site(d: Diagram, site: tuple[int, int], arc: bool) -> tuple[int, int]:
    k, p = site
    _require(0 <= k < d.num_components, "no component %s", k)
    _require(0 <= p < (d.arc_count(k) if arc else len(d.components[k])),
             "position %s out of range in component %s", p, k)
    return k, p


def _edits(d: Diagram, mv: MoveDescriptor) -> list[tuple[int, int, int, tuple[Pass, ...]]]:
    """Check mv against d and return its rewrite as disjoint slice edits
    (k, start, stop, passes), each replacing d.components[k][start:stop] by
    passes, sorted by (k, start).  An add is (k, cut, cut, pair) per arc, a
    removal (k, p, p+2, ()) per pass pair and an RIII swap (k, p, p+2, the
    pair swapped); a pair from the last position round to 0 is two edits."""
    edits = []
    if mv.kind in _ADD_LAYOUTS:
        arcs = _ADD_LAYOUTS[mv.kind].get(mv.variant) if isinstance(mv.variant, str) else None
        _require(arcs is not None, "bad %s variant %r", mv.kind, mv.variant)
        _require(len(mv.sites) == len(arcs), "wrong number of sites for this add move")
        sites = [_site(d, site, arc=True) for site in mv.sites]
        _require(len(set(sites)) == len(sites), "the sites must be distinct arcs")
        fresh = d.max_crossing_id() + 1
        _require(fresh + _FRESH_IDS[mv.kind] <= _ID_LIMIT, "too few fresh crossing ids below 10**4000")
        # insert on arc p means between pass p and pass p+1, and an empty
        # component takes the insertion as its whole sequence
        for (k, p), ((o1, r1, s1), (o2, r2, s2)) in zip(sites, arcs):
            cut = p + 1 if d.components[k] else 0
            edits.append((k, cut, cut, (Pass(fresh + o1, r1, s1), Pass(fresh + o2, r2, s2))))
    elif mv.kind in _LOCAL_KINDS:
        _require(bool(mv.sites), "%s has no sites", mv.kind)
        k, p = _site(d, mv.sites[0], arc=False)
        _require(mv in _local_moves(d, {mv.kind}, k, (p,)),
                 "sites do not hold this %s configuration", mv.kind)
        swap = mv.kind == RIII
        for k, p in mv.sites:
            comp = d.components[k]
            if p + 1 < len(comp):
                edits.append((k, p, p + 2, (comp[p + 1], comp[p]) if swap else ()))
            else:  # the pair runs from the last position round to 0
                edits += [(k, 0, 1, (comp[p],) if swap else ()),
                          (k, p, p + 1, (comp[0],) if swap else ())]
    else:
        raise MoveError(f"unknown move kind {mv.kind!r}")
    return sorted(edits)


def apply_move(d: Diagram, mv: MoveDescriptor) -> Diagram:
    """Apply a descriptor, re-validating it against the diagram first.

    Descriptors are positional, so applying one to a diagram it was not
    enumerated from raises MoveError instead of rewriting garbage.  An add
    descriptor is legal when its variant is a row of _ADD_LAYOUTS, its sites
    are distinct arcs and its fresh ids stay below the bound.  An RI-remove,
    RII-remove or RIII descriptor is legal exactly when the scan that
    enumerates moves lists it from the descriptor's first site; no other
    position is scanned.  A legal move's slice edits (_edits) keep one over
    and one under pass of one sign per crossing, so the result skips
    Diagram's validation.
    """
    return d._rewritten(_edits(d, mv))


def random_walk(d: Diagram, steps: int, kinds, seed: int
                ) -> list[tuple[MoveDescriptor | None, Diagram]]:
    """Seeded trajectory of uniformly chosen applicable moves.

    Each step picks uniformly among all applicable descriptors of the
    requested kinds; a step with no applicable move is recorded as a stall
    (None descriptor, unchanged diagram).  Identical arguments always give
    identical trajectories.
    """
    kinds = frozenset(kinds)
    if not kinds:
        raise MoveError("kinds must be nonempty")
    rng = random.Random(seed)
    trajectory = []
    current, local = d, None
    for _ in range(steps):
        index = _MoveIndex(current, kinds, local)
        local = index.local
        if index.total == 0:
            trajectory.append((None, current))
            continue
        mv = index.descriptor(rng.randrange(index.total))
        edits = _edits(current, mv)
        new = current._rewritten(edits)
        current, local = new, _rescan(current, new, edits, kinds, local)
        trajectory.append((mv, current))
    return trajectory

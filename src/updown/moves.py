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
_local_moves, which reads each adjacent pass pair once, skips an over pair
with no crossing beside both its under passes (every poke and slide site
has one) and looks slides up in _RIII_ROWS.  enumerate_moves scans every
position; random_walk does once, then only next to each move (_rescan),
carrying the list between steps with its sites at labels, which never move.
_edits checks a move of either kind against a diagram, scanning only its
first site, and describes it as slice edits of the pass sequences, which
Diagram._rewritten applies without re-validating and _rescan reads.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

from .diagram import _ID_LIMIT, OVER, UNDER, Diagram, Pass, _pass, _positions
from .errors import UpDownError

RI_ADD = "RI-add"
RI_REMOVE = "RI-remove"
RII_ADD = "RII-add"
RII_REMOVE = "RII-remove"
RIII = "RIII"
MOVE_KINDS = frozenset({RI_ADD, RI_REMOVE, RII_ADD, RII_REMOVE, RIII})
_LOCAL_KINDS = frozenset({RI_REMOVE, RII_REMOVE, RIII})
_descriptor_key = attrgetter("kind", "sites", "variant")  # sort key of descriptor lists
_LISTING_BUDGET = 10**6  # descriptors per enumerate_moves call, as many as colorings per listing

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
    poke and as the T pair of a triple slide.  A poke needs b's crossing
    next to a's under pass, a slide one (MB) next to both under passes: a
    pair with neither is skipped, and one with no MB skips the slide test.
    """
    components = d.components
    under_at = _positions(d, d._under_at)  # bulk scan; ids are known valid
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
        under_a, under_b = under_at[a.crossing], under_at[b.crossing]  # read once, for both kinds
        (k_under, p_a), (k_under2, p_b) = under_a, under_b
        ring_a, ring_b = components[k_under], components[k_under2]
        near_a = ring_a[p_a - 1].crossing, ring_a[(p_a + 1) % len(ring_a)].crossing
        slide = ring_b[p_b - 1].crossing in near_a or ring_b[(p_b + 1) % len(ring_b)].crossing in near_a
        if not slide and b.crossing not in near_a:
            continue
        # this adjacency test and B's below stay inline: a shared helper slows walk measurably
        if RII_REMOVE in kinds and a.sign == -b.sign:
            # the under passes of a then b (parallel), or of b then a; both on two passes
            for pattern, start, after in (("parallel", p_a, p_b), ("antiparallel", p_b, p_a)):
                if k_under2 == k_under and (start + 1) % len(components[k_under]) == after:
                    out.append(MoveDescriptor(
                        RII_REMOVE, f"{pattern}{_sign_char(a.sign)}", ((k, p), (k_under, start))))
        if RIII not in kinds or not slide:
            continue
        for t_first, tm_pass, tb_pass, (k_mid, pu), (k_low, p_tb) in (
                ("TM", a, b, under_a, under_b), ("TB", b, a, under_b, under_a)):
            tm, tb = tm_pass.crossing, tb_pass.crossing
            mid = components[k_mid]
            nxt, prv = (pu + 1) % len(mid), (pu - 1) % len(mid)
            # M runs under TM then over MB, or over MB then under TM
            for m_first, anchor_m, other in (("TM", pu, nxt), ("MB", prv, prv)):
                mb_pass = mid[other]
                mb = mb_pass.crossing
                if mb_pass.role != OVER or mb in (tm, tb):
                    continue
                low = components[k_low]
                after, before = (p_tb + 1) % len(low), (p_tb - 1) % len(low)
                if mb not in (low[after].crossing, low[before].crossing):
                    continue
                # B runs under TB then MB, or under MB then TB; not elif: a two-pass
                # bottom strand is adjacent both ways round
                for b_first, anchor_b, p_mb in (("TB", p_tb, after), ("MB", before, before)):
                    if low[p_mb].crossing != mb or low[p_mb].role != UNDER:
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
    matches the order of enumerate_moves exactly.  local, the sorted
    RI-remove, RII-remove and RIII list, sites each pair as the maps do:
    (k, label) on a component with labels (rows), else (k, position); labels
    grow with position, so the order is the same.  random_walk carries local
    from step to step, rescanning only next to the last move (_rescan);
    given none, every position is scanned.
    """

    def __init__(self, d: Diagram, kinds, local=None):
        try:  # a str would read as a collection of one-letter kinds
            self.kinds = kinds = frozenset(None if isinstance(kinds, str) else kinds)
        except TypeError:  # not a collection, or an unhashable item
            raise MoveError(f"kinds must be a collection of move kinds, got {_shown(kinds)!r}") from None
        if kinds - MOVE_KINDS:
            raise MoveError(f"unknown move kinds: {sorted(map(_shown, kinds - MOVE_KINDS), key=str)}")
        # arc i is (k, i - starts[k]) for the last k with starts[k] <= i
        self.starts = list(accumulate((d.arc_count(k) for k in range(d.num_components)),
                                      initial=0))
        n_arcs = self.starts[-1]
        top = d.max_crossing_id()
        fits = {kind: kind in kinds and top + fresh < _ID_LIMIT for kind, fresh in _FRESH_IDS.items()}
        self.ri_add = len(_RI_VARIANTS) * n_arcs * fits[RI_ADD]
        self.rii_add = len(_RII_VARIANTS) * n_arcs * (n_arcs - 1) * fits[RII_ADD]
        self.rows = d._labels if kinds & _LOCAL_KINDS else {}  # else an unread d stays unread
        if local is None:  # RI-remove < RII-remove < RIII in the key, so the sort splits by kind
            local = sorted((_sited(mv, self.rows, True) if self.rows else mv
                            for k, comp in enumerate(d.components) if kinds & _LOCAL_KINDS
                            for mv in _local_moves(d, kinds, k, range(len(comp)))), key=_descriptor_key)
        self.local = local
        self.n_ri_remove = bisect_left(local, RII_REMOVE, key=attrgetter("kind"))
        self.total = self.ri_add + self.rii_add + len(local)

    def _arc(self, i: int) -> tuple[int, int]:
        k = bisect_right(self.starts, i) - 1
        return k, i - self.starts[k]

    def descriptor(self, idx: int) -> MoveDescriptor:
        """Move idx, its sites as positions."""
        if idx < self.ri_add:
            arc, var = divmod(idx, len(_RI_VARIANTS))
            return MoveDescriptor(RI_ADD, _RI_VARIANTS[var], (self._arc(arc),))
        idx -= self.ri_add
        if self.n_ri_remove <= idx < self.n_ri_remove + self.rii_add:
            pair, var = divmod(idx - self.n_ri_remove, len(_RII_VARIANTS))
            i, r = divmod(pair, self.starts[-1] - 1)
            j = r if r < i else r + 1
            return MoveDescriptor(RII_ADD, _RII_VARIANTS[var], (self._arc(i), self._arc(j)))
        mv = self.local[idx if idx < self.n_ri_remove else idx - self.rii_add]
        return _sited(mv, self.rows, False) if self.rows else mv


def _sited(mv: MoveDescriptor, rows, to_labels: bool) -> MoveDescriptor:
    """mv with each site on a labelled component (rows: k -> its labels) moved
    from its position to its label (to_labels), or back."""
    return MoveDescriptor(mv.kind, mv.variant, tuple(
        site if (row := rows.get(site[0])) is None
        else (site[0], row[site[1]] if to_labels else bisect_left(row, site[1])) for site in mv.sites))


def _rescan(old: Diagram, labels, new: Diagram, edits, kinds,
            local: list[MoveDescriptor]) -> list[MoveDescriptor] | None:
    """The sorted local descriptors of new, sited as _MoveIndex's, from
    those of old (local), old's label lists (labels, read before new's build
    edits them in place) and the slice edits (_edits) that turned old into
    new; None when new indexed an edited component anew, moving its sites.

    A local descriptor's legality depends only on the passes of its pairs
    and on their adjacency.  An edit of component k breaks the pairs that
    start at positions start-1..stop-1: those holding a pass it replaces,
    and for an add the one pair either side of its cut.  Every other pair
    keeps its two passes, adjacent, at their labels (an unlabelled
    component's positions are its first labels), so a cached descriptor
    none of whose pairs broke survives as it is.  A pair that became
    adjacent has both passes on touched crossings: an edit's new passes and
    its old passes at start-1..stop.  Each pair of a site holds a crossing
    whose over pass lies in the site's first pair (RI: the kink; RII: a or
    b; RIII: TM in the M pair, TB in the B pair), touched when the pair is
    new, so scanning at q-1 and q, for the over pass q of every touched
    crossing, finds every new site, and replaces the cached ones there.
    """
    touched, broken = set(), set()
    for k, start, stop, passes in edits:
        comp, row = old.components[k], labels.get(k)
        touched.update(pas.crossing for pas in passes)
        if comp:
            touched.update(comp[i % len(comp)].crossing for i in range(start - 1, stop + 1))
            broken.update((k, row[i] if row else i % len(comp)) for i in range(start - 1, stop))
    rows = new._labels  # builds new's maps
    if any(k not in rows for k, _, _, _ in edits):
        return None
    over_at = _positions(new, new._over_at)
    rescanned: dict[int, set[int]] = {}
    for x in touched & new._over_at.keys():
        k, q = over_at[x]
        rescanned.setdefault(k, set()).update(((q - 1) % len(new.components[k]), q))
    first = {(k, rows[k][p] if k in rows else p) for k, ps in rescanned.items() for p in ps}
    out = [mv for mv in local if mv.sites[0] not in first and broken.isdisjoint(mv.sites)]
    for k, positions in rescanned.items():
        for mv in _local_moves(new, kinds, k, positions):
            insort(out, _sited(mv, rows, True), key=_descriptor_key)
    return out


def enumerate_moves(d: Diagram, kinds) -> list[MoveDescriptor]:
    """All applicable descriptors of the requested kinds, sorted by
    (kind, sites, variant).  More than 10**6 of them raise MoveError
    before any descriptor is built."""
    index = _MoveIndex(d, kinds)
    if index.total > _LISTING_BUDGET:
        raise MoveError(f"move descriptors exceed the listing budget of {_LISTING_BUDGET}")
    # the blocks in _MoveIndex order, the add blocks straight from the arc list
    arcs = [(k, p) for k in range(d.num_components) for p in range(d.arc_count(k))]
    local = [_sited(mv, index.rows, False) for mv in index.local] if index.rows else index.local
    n = index.n_ri_remove
    return ([MoveDescriptor(RI_ADD, v, (a,)) for a in arcs if index.ri_add for v in _RI_VARIANTS]
            + local[:n] + [MoveDescriptor(RII_ADD, v, (a, b)) for a in arcs if index.rii_add
                           for b in arcs if a != b for v in _RII_VARIANTS] + local[n:])


def _require(condition: bool, message: str, *args):
    # every applied move passes here, so message % args is built only on failure
    if not condition:
        raise MoveError(f"stale or invalid move descriptor: {message % tuple(map(_shown, args))}")


def _shown(arg):
    """arg, or "..." when its text would pass str()'s 4,300-digit limit, as an
    int's does from about 14,000 bits on."""
    try:
        str(arg)
    except ValueError:
        return "..."
    return "..." if isinstance(arg, int) and arg.bit_length() > 14_000 else arg


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
    pair swapped); a pair from the last position round to 0 is two edits.
    An add's pairs are d's, built once per layout and shared by its adds."""
    edits = []
    if mv.kind in _ADD_LAYOUTS:
        comps, sites = d.components, mv.sites
        arcs = _ADD_LAYOUTS[mv.kind].get(mv.variant) if isinstance(mv.variant, str) else None
        if arcs is None or len(sites) != len(arcs):  # checks stay inline; _require only raises
            _require(arcs is not None, "bad %s variant %r", mv.kind, mv.variant)
            _require(False, "wrong number of sites for this add move")
        shared = vars(d).setdefault("_fresh", {})  # (kind, variant) -> its fresh pair per arc
        pairs = shared.get(mv[:2])
        if pairs is None and (fresh := d.max_crossing_id() + 1) + _FRESH_IDS[mv.kind] <= _ID_LIMIT:
            pairs = shared.setdefault(mv[:2], tuple([  # racing first adds all take the first one
                (_pass(fresh + o1, r1, s1), _pass(fresh + o2, r2, s2))
                for (o1, r1, s1), (o2, r2, s2) in arcs]))
        for (k, p), pair in zip(sites, pairs or arcs):
            if not (0 <= k < len(comps) and 0 <= p < (len(comps[k]) or 1)):
                _site(d, (k, p), arc=True)  # raises this site's error
            # insert on arc p means between pass p and pass p+1; an empty component takes
            # the pair as its whole sequence, at p (0, or a non-int that fails the splice)
            cut = p + 1 if comps[k] else p
            edits.append((k, cut, cut, pair))
        if pairs is None or len(edits) == 2 and edits[1][:2] <= edits[0][:2]:  # rarely taken
            _require(len(edits) == 1 or edits[1][:2] != edits[0][:2], "the sites must be distinct arcs")
            _require(pairs is not None, "too few fresh crossing ids below 10**4000")
            edits.reverse()  # two edits out of order, sorted by this one comparison
        return edits
    if mv.kind in _LOCAL_KINDS:
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
        return sorted(edits)
    raise MoveError(f"unknown move kind {mv.kind!r}")


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
    Diagram's validation: it costs the check and the splice, and builds
    its maps when first read.  A malformed site, not two ints, raises too.
    """
    try:
        return d._rewritten(_edits(d, mv))
    except (TypeError, ValueError) as exc:  # raised by indexing with, or printing, a bad site
        raise MoveError(f"malformed move descriptor: {exc}") from exc


def random_walk(d: Diagram, steps: int, kinds, seed: int
                ) -> list[tuple[MoveDescriptor | None, Diagram]]:
    """Seeded trajectory of uniformly chosen applicable moves.

    Each step picks uniformly among all applicable descriptors of the
    requested kinds; a step with no applicable move is recorded as a stall
    (None descriptor, unchanged diagram).  Identical arguments always give
    identical trajectories, so seed must be an int.  _rescan's read builds
    each step's maps, from the last step's, which that step hands over
    (_rewritten): only the final diagram keeps its maps, and d's are only
    read; the carried descriptors keep label sites (_MoveIndex).
    """
    if not isinstance(steps, int):
        raise MoveError(f"steps must be an integer, got {type(steps).__name__}")
    if steps < 0:
        raise MoveError("steps must be >= 0")
    if not isinstance(seed, int):
        raise MoveError(f"seed must be an integer, got {type(seed).__name__}")
    index, local = _MoveIndex(d, kinds), None  # the first step's; it checks kinds
    kinds = index.kinds
    if not kinds:
        raise MoveError("kinds must be nonempty")
    rng = random.Random(seed)
    trajectory, current = [], d
    for _ in range(steps):
        index = index or _MoveIndex(current, kinds, local)  # none past the last step
        if index.total == 0:
            trajectory.append((None, current))
            continue
        mv = index.descriptor(rng.randrange(index.total))
        edits = _edits(current, mv)
        labels = vars(current).get("_labels", {})  # before the hand-over: new's build edits them
        new = current._rewritten(edits, hand_over=current is not d)  # steps are the walk's own
        current, local, index = new, _rescan(current, labels, new, edits, kinds, index.local), None
        trajectory.append((mv, current))
    return trajectory

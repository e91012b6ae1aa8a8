"""Crossing weights, weight-sum multisets and move-count certificates.

For a colored diagram and a weight table, every real crossing contributes
one table entry; the multiset of total weights over all colorings only
changes under poke (RII) moves, so differing multisets certify that any
rewrite sequence between two diagrams needs at least one of them.  Maxord
differences and non-self crossing counts sharpen "at least one" to a
numeric lower bound for two-component diagrams.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cocycle import CocycleTable, check_shiftable_system, cocycle_violation
from .coloring import Coloring, ColoringSpec, _require_total, maxord, solve_colorings
from .diagram import Diagram, _positions, _semi_arc_offsets
from .errors import UpDownError

CERT_MAXORD = "maxord-difference"
CERT_COLCOUNT = "coloring-count-witness"
CERT_PHI = "phi-multiset-difference"
CERT_NONSELF = "nonself-crossing-count"


class InvariantError(UpDownError):
    pass


@dataclass(frozen=True)
class WeightMultiset:
    """Sorted residue multiset; equality is element-wise."""

    elements: tuple[int, ...]

    @classmethod
    def of(cls, values) -> "WeightMultiset":
        return cls(tuple(sorted(values)))

    def __str__(self):
        return "{" + ",".join(str(v) for v in self.elements) + "}"


@dataclass(frozen=True)
class RiiBound:
    """A certified lower bound on the RII moves between two diagrams."""

    bound: int
    certificate: str
    detail: str

    def __str__(self):
        return f"bound={self.bound} certificate={self.certificate} detail={self.detail}"


def _weight_sites(d: Diagram, overs, rows, n: int) -> list:
    """(under comp, under color, over comp, over color, sign) of each
    (crossing, over position) in overs, colors read from rows (a color map or
    offsets) mod n: a positive crossing reads the under arc before it and the
    over arc after it, a negative one the under arc after and the over arc
    before.  The arc before position 0 is the last one, index -1."""
    comps, under_at = d.components, _positions(d, d._under_at)
    return [(ku, rows[ku][pu - 1] % n, ko, rows[ko][po] % n, 1) if comps[ko][po].sign > 0
            else (ku, rows[ku][pu] % n, ko, rows[ko][po - 1] % n, -1)
            for x, (ko, po) in overs for ku, pu in [under_at[x]]]


def _weight_sums(d: Diagram, colorings, table: CocycleTable) -> list[int]:
    """Weight sum mod m of each color map: one map, read at base colors 0 (one
    entry per class), or all of d's colorings, the first with base colors 0,
    which puts each crossing in a class (components, colors read, sign).  Each
    unordered component pair's classes are priced once, into a grid over the
    pair's base colors: n diagonal entries per class for a self pair, an n x n
    window of the doubled table rows (under component first) or columns for a
    cross pair.  A coloring then costs one lookup per pair."""
    if not colorings:
        return []
    n, m, entries, first = table.n, table.m, table.entries, colorings[0]
    span, bases = (n, colorings) if len(colorings) > 1 else (1, [[(0,)] * len(first)])
    # (sign block, n): the block's rows, (sign block, 1): its columns, all doubled
    lines = {} if span == 1 or len(first) < 2 else {
        (block, step): [entries[i:i + n * size:size] * 2 for i in range(block, block + n * step, step)] * 2
        for block in (0, n * n) for step, size in ((n, 1), (1, n))}
    pairs = {}
    for (ku, u, ko, o, s), count in Counter(
            _weight_sites(d, _positions(d, d._over_at).items(), first, n)).items():
        block = 0 if s > 0 else n * n
        if ku == ko or not lines:  # a self pair's diagonal, or a lone map's one entry
            item = (count, block, u, o)
        else:
            item = (count, lines[block, n], u, o) if ku < ko else (count, lines[block, 1], o, u)
        pairs.setdefault((ku, ko) if ku <= ko else (ko, ku), []).append(item)
    totals = [0] * len(bases)
    for (j, k), classes in pairs.items():
        grid = ([sum(c * entries[block + (b + x) % n * n + (b + y) % n] for c, block, x, y in classes)
                 for b in range(span)] if j == k or not lines else
                list(map(sum, zip(*([c * v for row in rows[x:x + span] for v in row[y:y + span]]
                                    for c, rows, x, y in classes)))))
        w = span if j < k else 0
        totals = [t + grid[b[j][0] * w + b[k][0]] for t, b in zip(totals, bases)]
    return [t % m for t in totals]


def _require_coloring(d: Diagram, c: Coloring, table: CocycleTable):
    if c.spec.modulus != table.n:
        raise InvariantError(
            f"coloring modulus {c.spec.modulus} does not match table modulus {table.n}")
    _require_total(d, c)


def crossing_weight(d: Diagram, c: Coloring, crossing: int, table: CocycleTable) -> int:
    """Table entry of one crossing: positive crossings read the incoming
    under color and outgoing over color, negative ones the outgoing under
    color and incoming over color."""
    _require_coloring(d, c, table)
    [(_, u, _, o, sign)] = _weight_sites(d, [(crossing, d.over_position(crossing))], c.colors, table.n)
    return table.value(u, o, sign)


def weight_sum(d: Diagram, c: Coloring, table: CocycleTable) -> int:
    """Sum of all crossing weights mod m; 0 for crossing-free diagrams."""
    _require_coloring(d, c, table)
    return _weight_sums(d, [c.colors], table)[0]


def _require_cocycle(table: CocycleTable):
    violation = cocycle_violation(table)
    if violation is not None:
        raise InvariantError(f"table is not an up-down cocycle: {violation}")


def phi_multiset(d: Diagram, table: CocycleTable, allow_links: bool = False) -> WeightMultiset:
    """Multiset of weight sums over all colorings of a knot diagram.

    Multi-component diagrams are rejected unless allow_links is set; the
    multiset is only proven move-stable for single-component diagrams, so
    the permissive mode is for exploration only.  Past solve_colorings it
    costs one pass over the crossings and one lookup per coloring and
    unordered component pair; a knot reads n table entries per crossing class.
    """
    if d.num_components != 1 and not allow_links:
        raise InvariantError(
            "weight multisets are defined for single-component diagrams; "
            "pass allow_links=True to compute the unproven multi-component variant")
    _require_cocycle(table)
    return _multiset(d, table)


def _multiset(d: Diagram, table: CocycleTable) -> WeightMultiset:
    colorings = [c.colors for c in solve_colorings(d, ColoringSpec(table.n))]
    return WeightMultiset.of(_weight_sums(d, colorings, table))


def phi_shift(d: Diagram, table: CocycleTable) -> int:
    """The common weight sum of a knot diagram under a shiftable cocycle.

    A knot's shift is always 0, so its unit-weight semi-arc offsets are a
    coloring, and every coloring is one color added to them.  A shiftable
    table reads only the difference of its arguments, so one pass over the
    offsets, one table read per crossing class, gives every coloring's sum.
    """
    if d.num_components != 1:
        raise InvariantError("the scalar weight sum is defined for single-component diagrams")
    if not check_shiftable_system(table):  # a shiftable cocycle passes; report why not
        _require_cocycle(table)
        raise InvariantError("the scalar weight sum needs a shiftable cocycle")
    return _weight_sums(d, [[_semi_arc_offsets(d, 0, (1, 1))]], table)[0]


def _require_same_components(d1: Diagram, d2: Diagram):
    if d1.num_components != d2.num_components:
        raise InvariantError(
            f"diagrams have {d1.num_components} and {d2.num_components} components; "
            "they cannot represent the same link")


def rii_bound_maxord(d1: Diagram, d2: Diagram) -> RiiBound:
    """Half the maxord difference, for two-component diagrams."""
    if d1.num_components != 2 or d2.num_components != 2:
        raise InvariantError("the maxord bound applies to two-component diagrams")
    return _maxord_bound(maxord(d1), maxord(d2))


def _maxord_bound(g1: int, g2: int) -> RiiBound:
    return RiiBound((abs(g1 - g2) + 1) // 2, CERT_MAXORD, f"|{g1}-{g2}|/2")


def rii_necessity_colcount(d1: Diagram, d2: Diagram) -> int | None:
    """Least modulus with differing coloring counts, or None.

    Counts are n**r against 0 by divisibility of the component-shift gcds
    g1 and g2 (0 divisible by everything), so a witness exists exactly when
    g1 != g2 and the least one divides exactly one of them.
    """
    _require_same_components(d1, d2)
    return _colcount_witness(maxord(d1), maxord(d2))


def _colcount_witness(g1: int, g2: int) -> int | None:
    if g1 == g2:
        return None
    for n in range(1, max(g1, g2) + 2):
        if (g1 % n == 0) != (g2 % n == 0):
            return n
    raise AssertionError("unreachable: distinct gcds always have a witness")


def rii_necessity_phi(d1: Diagram, d2: Diagram, table: CocycleTable) -> bool:
    """True when the weight multisets differ, certifying one RII move."""
    m1 = phi_multiset(d1, table)  # checks d1, then the table; phi_multiset rejects a linked d2
    return m1 != (_multiset(d2, table) if d2.num_components == 1 else phi_multiset(d2, table))


def rii_bound_nonself(d1: Diagram, d2: Diagram) -> RiiBound:
    """Half the difference of non-self crossing counts."""
    _require_same_components(d1, d2)
    c1, c2 = d1.nonself_crossing_count(), d2.nonself_crossing_count()
    return RiiBound((abs(c1 - c2) + 1) // 2, CERT_NONSELF, f"|{c1}-{c2}|/2")


def rii_report(d1: Diagram, d2: Diagram, table: CocycleTable | None = None) -> RiiBound:
    """Best applicable lower bound with its certificate.

    Candidates are tried in a fixed order (maxord, non-self count, coloring
    count, weight multiset) and ties keep the earliest, so identical inputs
    give identical reports.  Necessity-only certificates contribute 1.
    A table that is not an up-down cocycle raises InvariantError, for links too.
    """
    _require_same_components(d1, d2)
    g1, g2 = maxord(d1), maxord(d2)
    candidates = []
    if d1.num_components == 2:
        candidates.append(_maxord_bound(g1, g2))
    candidates.append(rii_bound_nonself(d1, d2))
    witness = _colcount_witness(g1, g2)
    if witness is not None:
        candidates.append(RiiBound(1, CERT_COLCOUNT, f"n={witness}"))
    if table is not None:
        _require_cocycle(table)
        if d1.num_components == 1:
            m1, m2 = _multiset(d1, table), _multiset(d2, table)
            if m1 != m2:
                candidates.append(RiiBound(1, CERT_PHI, f"{m1}!={m2}"))
    # max keeps the first of equal bounds, so ties go to the earliest candidate
    return max(candidates, key=lambda c: c.bound)

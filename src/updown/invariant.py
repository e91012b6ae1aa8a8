"""Crossing weights, weight-sum multisets and move-count certificates.

For a colored diagram and a weight table, every real crossing contributes
one table entry; the multiset of total weights over all colorings only
changes under poke (RII) moves, so differing multisets certify that any
rewrite sequence between two diagrams needs at least one of them.  Maxord
differences and non-self crossing counts sharpen "at least one" to a
numeric lower bound for two-component diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cocycle import CocycleTable, check_shiftable_system, cocycle_violation
from .coloring import Coloring, ColoringSpec, maxord, solve_colorings
from .diagram import Diagram, _semi_arc_offsets
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


def _weight_site(d: Diagram, crossing: int) -> tuple[int, int, int, int, int]:
    """(under comp, under arc, over comp, over arc, sign) that crossing_weight reads."""
    ko, po = d.over_position(crossing)
    ku, pu = d.under_position(crossing)
    if d.crossing_sign(crossing) > 0:
        return ku, (pu - 1) % len(d.components[ku]), ko, po, 1
    return ku, pu, ko, (po - 1) % len(d.components[ko]), -1


def _site_total(sites, colors, table: CocycleTable) -> int:
    value = table.value
    return sum(value(colors[ku][au], colors[ko][ao], sign)
               for ku, au, ko, ao, sign in sites) % table.m


def _require_modulus(c: Coloring, table: CocycleTable):
    if c.spec.modulus != table.n:
        raise InvariantError(
            f"coloring modulus {c.spec.modulus} does not match table modulus {table.n}")


def crossing_weight(d: Diagram, c: Coloring, crossing: int, table: CocycleTable) -> int:
    """Table entry of one crossing: positive crossings read the incoming
    under color and outgoing over color, negative ones the outgoing under
    color and incoming over color."""
    _require_modulus(c, table)
    ku, au, ko, ao, sign = _weight_site(d, crossing)
    return table.value(c.colors[ku][au], c.colors[ko][ao], sign)


def weight_sum(d: Diagram, c: Coloring, table: CocycleTable) -> int:
    """Sum of all crossing weights mod m; 0 for crossing-free diagrams."""
    _require_modulus(c, table)
    return _site_total([_weight_site(d, x) for x in d.crossing_ids()], c.colors, table)


def _require_cocycle(table: CocycleTable):
    violation = cocycle_violation(table)
    if violation is not None:
        raise InvariantError(f"table is not an up-down cocycle: {violation}")


def phi_multiset(d: Diagram, table: CocycleTable, allow_links: bool = False) -> WeightMultiset:
    """Multiset of weight sums over all colorings of a knot diagram.

    Multi-component diagrams are rejected unless allow_links is set; the
    multiset is only proven move-stable for single-component diagrams, so
    the permissive mode is for exploration only.
    """
    if d.num_components != 1 and not allow_links:
        raise InvariantError(
            "weight multisets are defined for single-component diagrams; "
            "pass allow_links=True to compute the unproven multi-component variant")
    _require_cocycle(table)
    sites = [_weight_site(d, x) for x in d.crossing_ids()]
    return WeightMultiset.of(_site_total(sites, c.colors, table)
                             for c in solve_colorings(d, ColoringSpec(table.n)))


def phi_shift(d: Diagram, table: CocycleTable) -> int:
    """The common weight sum of a knot diagram under a shiftable cocycle.

    Every coloring of a knot is one color added to the semi-arc offsets,
    and a shiftable table reads only the difference of its arguments, so
    one pass over the crossings at color 0 gives every coloring's sum.
    """
    if d.num_components != 1:
        raise InvariantError("the scalar weight sum is defined for single-component diagrams")
    if not check_shiftable_system(table):  # a shiftable cocycle passes; report why not
        _require_cocycle(table)
        raise InvariantError("the scalar weight sum needs a shiftable cocycle")
    offsets, _ = _semi_arc_offsets(d, 0, (1, 1))
    return _site_total([_weight_site(d, x) for x in d.crossing_ids()], (offsets,), table)


def _require_same_components(d1: Diagram, d2: Diagram):
    if d1.num_components != d2.num_components:
        raise InvariantError(
            f"diagrams have {d1.num_components} and {d2.num_components} components; "
            "they cannot represent the same link")


def rii_bound_maxord(d1: Diagram, d2: Diagram) -> RiiBound:
    """Half the maxord difference, for two-component diagrams."""
    if d1.num_components != 2 or d2.num_components != 2:
        raise InvariantError("the maxord bound applies to two-component diagrams")
    g1, g2 = maxord(d1), maxord(d2)
    return RiiBound((abs(g1 - g2) + 1) // 2, CERT_MAXORD, f"|{g1}-{g2}|/2")


def rii_necessity_colcount(d1: Diagram, d2: Diagram) -> int | None:
    """Least modulus with differing coloring counts, or None.

    Counts are n**r against 0 by divisibility of the component-shift gcds
    g1 and g2 (0 divisible by everything), so a witness exists exactly when
    g1 != g2 and the least one divides exactly one of them.
    """
    _require_same_components(d1, d2)
    g1, g2 = maxord(d1), maxord(d2)
    if g1 == g2:
        return None
    for n in range(1, max(g1, g2) + 2):
        if (g1 % n == 0) != (g2 % n == 0):
            return n
    raise AssertionError("unreachable: distinct gcds always have a witness")


def rii_necessity_phi(d1: Diagram, d2: Diagram, table: CocycleTable) -> bool:
    """True when the weight multisets differ, certifying one RII move."""
    return phi_multiset(d1, table) != phi_multiset(d2, table)


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
    """
    _require_same_components(d1, d2)
    candidates = []
    if d1.num_components == 2:
        candidates.append(rii_bound_maxord(d1, d2))
    candidates.append(rii_bound_nonself(d1, d2))
    witness = rii_necessity_colcount(d1, d2)
    if witness is not None:
        candidates.append(RiiBound(1, CERT_COLCOUNT, f"n={witness}"))
    if table is not None and d1.num_components == 1:
        m1, m2 = phi_multiset(d1, table), phi_multiset(d2, table)
        if m1 != m2:
            candidates.append(RiiBound(1, CERT_PHI, f"{m1}!={m2}"))
    # max keeps the first of equal bounds, so ties go to the earliest candidate
    return max(candidates, key=lambda c: c.bound)

"""Up-down colorings of diagrams over Z_n.

A coloring assigns a residue to every semi-arc.  Walking a component along
its orientation, the color gains w after an over pass and loses w after an
under pass, where w is the positive-crossing weight at positive crossings
and the negative-crossing weight at negative ones.  The classical case is
both weights equal to 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .diagram import _ID_LIMIT, OVER, Diagram, SemiArcId, _semi_arc_offsets
from .errors import UpDownError


class ColoringError(UpDownError):
    pass


@dataclass(frozen=True)
class ColoringSpec:
    """Modulus plus the color shifts applied at positive/negative crossings."""

    modulus: int
    pos_shift: int = 1
    neg_shift: int = 1

    def __post_init__(self):
        for name, value in vars(self).items():  # the fields, in order
            if not isinstance(value, int):
                raise ColoringError(f"{name} must be an integer, got {type(value).__name__}")
        if self.modulus < 1:
            raise ColoringError("modulus must be >= 1")  # the rule, not a value too long to print


@dataclass(frozen=True)
class Coloring:
    """A total color map, stored densely: colors[k][p] colors semi-arc (k, p)."""

    spec: ColoringSpec
    colors: tuple[tuple[int, ...], ...]

    def color(self, arc: SemiArcId) -> int:
        return self.colors[arc.component][arc.position]


_COLORING_BUDGET = 10**6
_COLOR_BUDGET = 10**7  # colorings times semi-arcs, the colors a listing builds
_COUNT_BUDGET = _ID_LIMIT - 1  # counts stay below 10**4000, like crossing ids, so they print


def _power_within(n: int, r: int, budget: int) -> int | None:
    """n**r if it is at most budget, else None, by a product that stops past budget."""
    power = 1
    for _ in range(r):
        power *= n
        if power > budget:
            return None
    return power


def _component_offsets(d: Diagram, spec: ColoringSpec) -> list[tuple[int, ...]] | None:
    """Each component's semi-arc offsets under the spec's weights, or None
    when the modulus does not divide some component's shift.  This is the
    colorability test: the diagram has colorings exactly when it is not None."""
    weights = (spec.pos_shift, spec.neg_shift)
    walks = [_semi_arc_offsets(d, k, weights) for k in range(d.num_components)]
    if any(shift % spec.modulus for _, shift in walks):
        return None
    return [offsets for offsets, _ in walks]


def _require_total(d: Diagram, c: Coloring):
    if len(c.colors) != d.num_components or any(
            len(c.colors[k]) != d.arc_count(k) for k in range(d.num_components)):
        raise ColoringError("color map does not cover exactly the semi-arcs of the diagram")


def verify_coloring(d: Diagram, c: Coloring) -> bool:
    """True when every crossing condition holds mod n: the diagram is colorable
    and each color is semi-arc 0's color plus the semi-arc's offset.  Raises
    ColoringError if the color map is not total on the diagram's semi-arcs."""
    _require_total(d, c)
    offsets = _component_offsets(d, c.spec)
    return offsets is not None and not any(
        (col - cols[0] - off) % c.spec.modulus
        for cols, offs in zip(c.colors, offsets) for col, off in zip(cols, offs))


def solve_colorings(d: Diagram, spec: ColoringSpec) -> list[Coloring]:
    """All colorings, sorted lexicographically by their color tuples.

    Per component the base color of semi-arc 0 determines everything by
    propagation: each choice of base colors is a coloring when the diagram
    is colorable, and there are none otherwise.  More than 10**6 colorings,
    or 10**7 colors (colorings times semi-arcs), raise ColoringError first.
    Each component's n color tuples are built once and shared, so past the
    offset walk it costs n colors per semi-arc and one Coloring per coloring.
    """
    n, offsets = spec.modulus, _component_offsets(d, spec)
    if offsets is None:
        return []
    r, arcs = d.num_components, sum(map(len, offsets))
    if _power_within(n, r, min(_COLORING_BUDGET, _COLOR_BUDGET // arcs)) is None:
        raise ColoringError(f"n**{r} colorings of {arcs} semi-arcs exceed the listing budget")
    rows = [[tuple([(base + off) % n for off in offs]) for base in range(n)] for offs in offsets]
    return [Coloring(spec, colors) for colors in itertools.product(*rows)]


def count_colorings(d: Diagram, spec: ColoringSpec) -> int:
    """n**r when the diagram is colorable, else 0.  A count of 10**4000 or
    more raises ColoringError."""
    n, r = spec.modulus, d.num_components
    if _component_offsets(d, spec) is None:
        return 0
    count = _power_within(n, r, _COUNT_BUDGET)
    if count is None:
        raise ColoringError(f"n**{r} colorings reach the count budget of 10**4000")
    return count


def is_colorable(d: Diagram, spec: ColoringSpec) -> bool:
    """True when n divides every component shift (see _component_offsets)."""
    return _component_offsets(d, spec) is not None


def maxord(d: Diagram) -> int:
    """Greatest common divisor of the absolute component shifts.

    This is the largest n for which the diagram is colorable with unit
    shifts, with 0 meaning every n works.  Each shift is counted as over
    passes less under passes; for two components, either one's |over - under|.
    """
    return math.gcd(*(2 * [pas.role for pas in comp].count(OVER) - len(comp) for comp in d.components))


def shift_coloring(c: Coloring, i: int) -> Coloring:
    """Add i to every color; up-down conditions are preserved."""
    n = c.spec.modulus
    return Coloring(c.spec, tuple(
        tuple((v + i) % n for v in comp) for comp in c.colors))

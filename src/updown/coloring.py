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

from .diagram import _ID_LIMIT, Diagram, SemiArcId, _semi_arc_offsets, component_shift
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
        if self.modulus < 1:
            raise ColoringError(f"modulus must be >= 1, got {self.modulus}")


@dataclass(frozen=True)
class Coloring:
    """A total color map, stored densely: colors[k][p] colors semi-arc (k, p)."""

    spec: ColoringSpec
    colors: tuple[tuple[int, ...], ...]

    def color(self, arc: SemiArcId) -> int:
        return self.colors[arc.component][arc.position]


_COLORING_BUDGET = 10**6
_COUNT_BUDGET = _ID_LIMIT - 1  # counts stay below 10**4000, like crossing ids, so they print


def _power_within(n: int, r: int, budget: int) -> int | None:
    """n**r if it is at most budget, else None, by a product that stops past budget."""
    power = 1
    for _ in range(r):
        power *= n
        if power > budget:
            return None
    return power


def _component_offsets(d: Diagram, spec: ColoringSpec):
    """(semi-arc offsets, shift) per component under the spec's weights."""
    weights = (spec.pos_shift, spec.neg_shift)
    return [_semi_arc_offsets(d, k, weights) for k in range(d.num_components)]


def _require_total(d: Diagram, c: Coloring):
    if len(c.colors) != d.num_components or any(
            len(c.colors[k]) != d.arc_count(k) for k in range(d.num_components)):
        raise ColoringError("color map does not cover exactly the semi-arcs of the diagram")


def verify_coloring(d: Diagram, c: Coloring) -> bool:
    """True when every crossing condition holds mod n: per component, each
    color is semi-arc 0's color plus the semi-arc's offset, and n divides
    the shift.  Raises ColoringError if the color map is not total on the
    diagram's semi-arcs.
    """
    _require_total(d, c)
    n = c.spec.modulus
    for cols, (offsets, shift) in zip(c.colors, _component_offsets(d, c.spec)):
        if shift % n or any((col - cols[0] - off) % n for col, off in zip(cols, offsets)):
            return False
    return True


def solve_colorings(d: Diagram, spec: ColoringSpec) -> list[Coloring]:
    """All colorings, sorted lexicographically by their color tuples.

    Per component the base color of semi-arc 0 determines everything by
    propagation, and the choice is consistent exactly when the modulus
    divides that component's shift.  The output is the full solution set,
    empty when some component is inconsistent.  A solution set of more
    than 10**6 colorings raises ColoringError before any is built.
    """
    n = spec.modulus
    offsets = []
    for offs, shift in _component_offsets(d, spec):
        if shift % n:
            return []
        offsets.append(offs)
    r = d.num_components
    if _power_within(n, r, _COLORING_BUDGET) is None:
        raise ColoringError(f"n**{r} colorings exceed the budget of {_COLORING_BUDGET}")
    return [Coloring(spec, tuple(tuple((base + off) % n for off in offs)
                                 for base, offs in zip(bases, offsets)))
            for bases in itertools.product(range(n), repeat=r)]


def count_colorings(d: Diagram, spec: ColoringSpec) -> int:
    """n**r when every component shift is divisible by n, else 0.  A count
    of 10**4000 or more raises ColoringError."""
    n, r = spec.modulus, d.num_components
    if any(shift % n for _, shift in _component_offsets(d, spec)):
        return 0
    count = _power_within(n, r, _COUNT_BUDGET)
    if count is None:
        raise ColoringError(f"n**{r} colorings reach the count budget of 10**4000")
    return count


def is_colorable(d: Diagram, spec: ColoringSpec) -> bool:
    """True when n divides every component shift."""
    return not any(shift % spec.modulus for _, shift in _component_offsets(d, spec))


def maxord(d: Diagram) -> int:
    """Greatest common divisor of the absolute component shifts.

    This is the largest n for which the diagram is colorable with unit
    shifts, with 0 meaning every n works.  For two-component diagrams it is
    the |over - under| count of either component.
    """
    g = 0
    for k in range(d.num_components):
        g = math.gcd(g, abs(component_shift(d, k)))
    return g


def shift_coloring(c: Coloring, i: int) -> Coloring:
    """Add i to every color; up-down conditions are preserved."""
    n = c.spec.modulus
    return Coloring(c.spec, tuple(
        tuple((v + i) % n for v in comp) for comp in c.colors))

"""Signed Gauss codes, the data model for virtual-link diagrams.

A diagram is stored as one cyclic pass sequence per component.  Each pass
records which crossing is traversed, whether the strand runs over or under
it, and the crossing sign.  Virtual crossings are never stored: every
invariant computed by this package depends only on the real crossings, and
the four virtual Reidemeister moves act as the identity on this
representation.

Text grammar (tokens separated by one or more spaces)::

    diagram   := component (";" component)*
    component := "()" | pass+
    pass      := ("O"|"U") integer ("+"|"-")     decimal, 1 <= integer < 10**4000

Semi-arc convention: semi-arc p of a component is the arc immediately
following pass p (cyclically).  A component with no passes is a closed
curve with the single semi-arc 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import UpDownError

OVER = "O"
UNDER = "U"

_PASS_RE = re.compile(r"([OU])([0-9]+)([+-])\Z")
# ids below this stay within str()'s 4300-digit limit; moves add no id at or past it
_ID_LIMIT = 10**4000
_TOKEN_RE = re.compile(r"\S+")


class ParseError(UpDownError):
    """Input text does not conform to the Gauss-code grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ValidationError(UpDownError):
    """Well-formed text that is not a valid diagram."""


@dataclass(frozen=True)
class Pass:
    """One strand's traversal of a real crossing."""

    crossing: int
    role: str  # OVER or UNDER
    sign: int  # +1 or -1


@dataclass(frozen=True, order=True)
class SemiArcId:
    component: int
    position: int


def _index(maps, components, k: int, start: int, checked: bool):
    """Map component k's passes, from start on, into maps; checked also validates them."""
    over_at, under_at = maps
    for p, pas in enumerate(components[k][start:], start):
        x, role = pas.crossing, pas.role
        at = over_at if role == OVER else under_at
        if checked:
            if not 0 < x < _ID_LIMIT:
                raise ValidationError("crossing ids must be >= 1 and below 10**4000")
            if pas.sign not in (1, -1):
                raise ValidationError(f"crossing {x}: sign must be +1 or -1")
            if at is under_at and role != UNDER:
                raise ValidationError(f"crossing {x}: unknown role {role!r}")
            if x in at:
                side = "over" if role == OVER else "under"
                raise ValidationError(f"crossing {x} has two {side} passes")
            partner = (under_at if at is over_at else over_at).get(x)
            if partner and components[partner[0]][partner[1]].sign != pas.sign:
                raise ValidationError(f"crossing {x} has mismatched signs")
        at[x] = (k, p)


@dataclass(frozen=True)
class Diagram:
    """An ordered sequence of components.

    Every crossing id must occur exactly twice, once over and once under,
    with the same sign on both passes, which is read from the over pass.
    The constructor stores the components as tuples, validates them and
    maps each crossing to its two pass positions; a move result is valid by
    construction and applies its slice edits to its parent's maps
    (_rewritten).  Instances are immutable and safe to share; all
    operations on them are pure functions.
    """

    components: tuple[tuple[Pass, ...], ...]

    def __post_init__(self):
        vars(self)["components"] = tuple(map(tuple, self.components))
        if not self.components:
            raise ValidationError("a diagram needs at least one component")
        over_at, under_at = maps = {}, {}
        for k in range(len(self.components)):
            _index(maps, self.components, k, 0, checked=True)
        if over_at.keys() != under_at.keys():
            x = next(pas.crossing for comp in self.components for pas in comp
                     if pas.crossing not in over_at or pas.crossing not in under_at)
            side = "under" if x in over_at else "over"
            raise ValidationError(f"crossing {x} has no {side} pass")
        vars(self).update(_over_at=over_at, _under_at=under_at)

    def _rewritten(self, edits) -> Diagram:
        """A rewrite's result, unvalidated: the sorted slice edits (k, start,
        stop, passes) of moves._edits applied from the last one back, this
        diagram's two maps less the replaced passes, and each edited
        component re-indexed from its first edit on."""
        components = list(self.components)
        maps = over_at, under_at = self._over_at.copy(), self._under_at.copy()
        for k, start, stop, passes in reversed(edits):
            comp = components[k]
            for pas in comp[start:stop]:
                del (over_at if pas.role == OVER else under_at)[pas.crossing]
            components[k] = comp[:start] + passes + comp[stop:]
        components = tuple(components)
        for k, start in {k: start for k, start, _, _ in reversed(edits)}.items():
            _index(maps, components, k, start, checked=False)
        new = object.__new__(Diagram)
        vars(new).update(components=components, _over_at=over_at, _under_at=under_at)
        return new

    # -- basic queries ----------------------------------------------------

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def num_crossings(self) -> int:
        return len(self._over_at)

    def arc_count(self, component: int) -> int:
        return max(1, len(self.components[component]))

    def crossing_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._over_at))

    def crossing_sign(self, crossing: int) -> int:
        k, p = self.over_position(crossing)
        return self.components[k][p].sign

    def over_position(self, crossing: int) -> tuple[int, int]:
        """(component, position) of the over pass of a crossing."""
        try:
            return self._over_at[crossing]
        except KeyError:
            raise ValidationError(f"no crossing {crossing} in this diagram") from None

    def under_position(self, crossing: int) -> tuple[int, int]:
        self.over_position(crossing)
        return self._under_at[crossing]

    def is_self_crossing(self, crossing: int) -> bool:
        """True when both passes of the crossing lie in one component."""
        return self.over_position(crossing)[0] == self.under_position(crossing)[0]

    def nonself_crossing_count(self) -> int:
        return sum(self._under_at[x][0] != k for x, (k, _) in self._over_at.items())

    def max_crossing_id(self) -> int:
        if "_max_id" not in vars(self):  # computed once per diagram, on first use
            vars(self)["_max_id"] = max(self._over_at, default=0)
        return self._max_id


def parse(text: str) -> Diagram:
    """Parse a Gauss-code string into a validated diagram.

    Raises ParseError (with the offending character offset) on grammar
    violations and ValidationError on structural ones.
    """
    tokens = [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(text)]
    if not tokens:
        raise ParseError("empty input; a crossing-free component is written ()", 0)
    groups: list[list[tuple[str, int]]] = [[]]
    last_sep_pos = 0
    for tok, pos in tokens:
        if tok == ";":
            if not groups[-1]:
                raise ParseError("empty component before ';'", pos)
            groups.append([])
            last_sep_pos = pos
        else:
            groups[-1].append((tok, pos))
    if not groups[-1]:
        raise ParseError("empty component after ';'", last_sep_pos)

    components = []
    for group in groups:
        if any(tok == "()" for tok, _ in group):
            if len(group) != 1:
                bad = next(pos for tok, pos in group if tok == "()")
                raise ParseError("'()' cannot be mixed with passes", bad)
            components.append(())
            continue
        passes = []
        for tok, pos in group:
            m = _PASS_RE.match(tok)
            if m is None:
                raise ParseError(f"bad pass token {tok!r}", pos)
            try:
                crossing = int(m.group(2))
            except ValueError:  # more digits than int() converts
                crossing = _ID_LIMIT
            if not 0 < crossing < _ID_LIMIT:
                raise ParseError("crossing ids must be >= 1 and below 10**4000", pos)
            passes.append(Pass(crossing, m.group(1), 1 if m.group(3) == "+" else -1))
        components.append(tuple(passes))
    return Diagram(tuple(components))


def serialize(d: Diagram) -> str:
    """Canonical text form; parse(serialize(d)) == d."""
    parts = []
    for comp in d.components:
        if not comp:
            parts.append("()")
        else:
            parts.append(" ".join(
                f"{p.role}{p.crossing}{'+' if p.sign > 0 else '-'}" for p in comp))
    return " ; ".join(parts)


def semi_arcs(d: Diagram) -> list[SemiArcId]:
    """All semi-arcs, component-major; one per pass, or one for a bare loop."""
    return [SemiArcId(k, p)
            for k in range(d.num_components)
            for p in range(d.arc_count(k))]


def _semi_arc_offsets(d: Diagram, index: int,
                      weights: tuple[int, int]) -> tuple[tuple[int, ...], int]:
    """Offsets of one component's semi-arcs from semi-arc 0, and its shift.

    A pass steps the color by +w over and -w under, w being weights[0] at
    positive crossings and weights[1] at negative ones.  Semi-arc p follows
    pass p, and the shift is the total of all the component's steps.
    """
    pos_w, neg_w = weights
    comp = d.components[index]
    offsets = [0]
    for pas in comp[1:] + comp[:1]:
        w = pos_w if pas.sign > 0 else neg_w
        offsets.append(offsets[-1] + (w if pas.role == OVER else -w))
    shift = offsets.pop() if comp else 0
    return tuple(offsets), shift


def component_shift(d: Diagram, index: int, weights: tuple[int, int] = (1, 1)) -> int:
    """Signed weight total of the passes of one component.

    An over pass adds +w and an under pass adds -w, where w is weights[0]
    at positive crossings and weights[1] at negative ones.  The two passes
    of a self-crossing share a sign and cancel, so only non-self crossings
    count.  With weights (1, 1) this is the over-minus-under count
    governing colorability.
    """
    if not 0 <= index < d.num_components:
        raise IndexError(f"component index {index} out of range")
    return _semi_arc_offsets(d, index, weights)[1]


def connected_sum(d1: Diagram, d2: Diagram, s1: SemiArcId, s2: SemiArcId) -> Diagram:
    """Splice two knot diagrams along the given semi-arcs.

    d2's crossing ids are offset past d1's, d2's sequence is cut open at s2
    and inserted into d1's sequence at s1.  Both inputs must have exactly
    one component.
    """
    if d1.num_components != 1 or d2.num_components != 1:
        raise ValidationError("connected sum is defined for single-component diagrams")
    for d, s in ((d1, s1), (d2, s2)):
        if s.component != 0 or not 0 <= s.position < d.arc_count(0):
            raise ValidationError(f"semi-arc {s} does not exist in its diagram")
    offset = d1.max_crossing_id()
    seq1 = d1.components[0]
    seq2 = tuple(Pass(p.crossing + offset, p.role, p.sign) for p in d2.components[0])
    cut = (s2.position + 1) % max(1, len(seq2))
    return Diagram((seq1[:s1.position + 1] + seq2[cut:] + seq2[:cut] + seq1[s1.position + 1:],))


def reverse_orientation(d: Diagram) -> Diagram:
    """Reverse every component's cyclic pass order; roles and signs stay."""
    return Diagram(tuple(tuple(reversed(comp)) for comp in d.components))

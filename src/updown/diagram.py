"""Signed Gauss codes, the data model for virtual-link diagrams.

A diagram is stored as one cyclic pass sequence per component.  Each pass
records which crossing is traversed, whether the strand runs over or under
it, and the crossing sign.  Virtual crossings are never stored: every
invariant computed by this package depends only on the real crossings, and
the four virtual Reidemeister moves act as the identity on this
representation.

Text grammar (tokens separated by any run of whitespace, as str.split reads it)::

    diagram   := component (";" component)*
    component := "()" | pass+
    pass      := ("O"|"U") integer ("+"|"-")     decimal, 1 <= integer < 10**4000

Semi-arc convention: semi-arc p of a component is the arc immediately
following pass p (cyclically).  A component with no passes is a closed
curve with the single semi-arc 0.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import NoReturn

from .errors import UpDownError

OVER = "O"
UNDER = "U"

_PASS_RE = re.compile(r"([OU])([0-9]+)([+-])\Z")
# ids below this stay within str()'s 4300-digit limit; moves add no id at or past it
_ID_LIMIT = 10**4000
_TOKEN_RE = re.compile(r"\S+")
_PASS_TOKEN = r"[OU]0*[1-9][0-9]{0,3999}[+-]"  # an id in 1..10**4000 - 1, zero padding aside
_COMPONENT = rf"(?:\(\)|{_PASS_TOKEN}(?:\s+{_PASS_TOKEN})*)"  # \s: the whitespace of str.split
_CODE_RE = re.compile(rf"\s*{_COMPONENT}(?:\s+;\s+{_COMPONENT})*\s*")
# _POSITIONS[k][p] is the (k, p) every map shares, so indexing allocates no tuple; a row
# grows by replacement, never in place, so a racing reader still holds a valid row
_POSITIONS: dict[int, tuple[tuple[int, int], ...]] = {}
_TOKEN_PASSES: dict[str, Pass] = {}  # parse's shared Pass per token of up to 8 chars (ids < 10**6)
_TOKEN_PASSES_CAP = 2**14  # 2.6 MiB when full; racing parsers may each add one past it


class ParseError(UpDownError):
    """Input text does not conform to the Gauss-code grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ValidationError(UpDownError):
    """Well-formed text that is not a valid diagram."""


@dataclass(frozen=True, slots=True)
class Pass:
    """One strand's traversal of a real crossing; immutable, so parse shares it."""

    crossing: int
    role: str  # OVER or UNDER
    sign: int  # +1 or -1


_SET_CROSSING, _SET_ROLE, _SET_SIGN = Pass.crossing.__set__, Pass.role.__set__, Pass.sign.__set__


def _pass(crossing: int, role: str, sign: int) -> Pass:
    """Pass(crossing, role, sign) at half the cost, its slots set directly."""
    pas = object.__new__(Pass)
    _SET_CROSSING(pas, crossing)
    _SET_ROLE(pas, role)
    _SET_SIGN(pas, sign)
    return pas


def _token_pass(token: str) -> Pass:
    """A well-formed token's pass, kept when short and the table has room."""
    pas = _pass(int(token[1:-1]), token[0], 1 if token[-1] == "+" else -1)
    if len(token) <= 8 and len(_TOKEN_PASSES) < _TOKEN_PASSES_CAP:
        _TOKEN_PASSES[token] = pas
    return pas


@dataclass(frozen=True, order=True)
class SemiArcId:
    component: int
    position: int


def _map_roles(maps, components, k: int):
    """Map component k's passes into maps by role, unchecked."""
    (over_at, under_at), comp, row = maps, components[k], _POSITIONS.get(k, ())
    if len(row) < len(comp):
        _POSITIONS[k] = row = row + tuple((k, p) for p in range(len(row), len(comp) * 9 // 8))
    for pas, q in zip(comp, row):
        if pas.role == OVER:
            over_at[pas.crossing] = q
        elif pas.role == UNDER:  # a pass of a third role is left out, for validation to see
            under_at[pas.crossing] = q


def _raise_validation_error(components) -> NoReturn:
    """Raise the first rule broken by passes Diagram's set checks reject."""
    over, under = {}, {}  # crossing -> its pass seen so far in each role
    for comp in components:
        for pas in comp:
            x, role = pas.crossing, pas.role
            seen = over if role == OVER else under
            if not 0 < x < _ID_LIMIT:
                raise ValidationError("crossing ids must be >= 1 and below 10**4000")
            if not isinstance(x, int):
                raise ValidationError(f"crossing {x}: id must be an integer")
            if pas.sign not in (1, -1):
                raise ValidationError(f"crossing {x}: sign must be +1 or -1")
            if seen is under and role != UNDER:
                raise ValidationError(f"crossing {x}: unknown role {role!r}")
            if x in seen:
                side = "over" if role == OVER else "under"
                raise ValidationError(f"crossing {x} has two {side} passes")
            partner = (under if seen is over else over).get(x)
            if partner and partner.sign != pas.sign:
                raise ValidationError(f"crossing {x} has mismatched signs")
            seen[x] = pas
    lone = over.keys() ^ under.keys()
    for x in (pas.crossing for comp in components for pas in comp if pas.crossing in lone):
        raise ValidationError(f"crossing {x} has no {'under' if x in over else 'over'} pass")
    raise AssertionError("unreachable: every diagram the set checks reject breaks a rule")


@dataclass(frozen=True)
class Diagram:
    """An ordered sequence of components.

    Every crossing id, an int, occurs once over and once under, with one
    sign, read from the over pass.  The constructor stores the components
    as tuples, maps each crossing to its two pass positions and decides by
    set and dict checks alone (__post_init__).  A move result is valid
    by construction and skips all that (_rewritten): it costs its spliced
    slices and builds its maps when first read, from its parent's (taken
    over from a walk step, else copied).  Instances are immutable and safe
    to share; all operations on them are pure functions.
    """

    components: tuple[tuple[Pass, ...], ...]

    def __post_init__(self):
        components = vars(self)["components"] = tuple(map(tuple, self.components))
        if not components:
            raise ValidationError("a diagram needs at least one component")
        # these checks alone decide: __getattr__ maps the passes by role; valid if none
        # was lost to a duplicate or a third role, every crossing has both, and per
        # crossing both ids are ints (U1.0 keys like O1) in range, with one sign, +1 or -1;
        # the ordered walk, like parse's, only reports the first rule a rejection broke
        try:
            over_at, under_at = self._over_at, self._under_at
            valid = (len(over_at) + len(under_at) == sum(map(len, components))
                     and over_at.keys() == under_at.keys()
                     and all(0 < x < _ID_LIMIT and o.sign in (1, -1) and o.sign == u.sign
                             and isinstance(x, int) and isinstance(u.crossing, int)
                             for x, (k, p) in over_at.items() for j, q in [under_at[x]]
                             for o, u in [(components[k][p], components[j][q])]))
        except TypeError:  # an unhashable or unordered id
            valid = False
        if not valid:
            _raise_validation_error(components)

    def __getattr__(self, name):
        """A rewrite result's maps, built on first read from its parent's.  An
        edit deletes the entries of the passes it takes out and writes those
        of the passes it puts in, at order labels that leave every other entry
        as it is (_labels).  Positions are written instead for a component
        whose labels ran out, and with no parent maps (as in validation) for all.
        The parent's maps and all its label lists are copied first, unless the
        parent handed them over (_rewritten): then they are edited in place."""
        if name not in ("_over_at", "_under_at", "_labels"):
            raise AttributeError(f"'Diagram' object has no attribute {name!r}")
        parent = vars(self).get("_parent")
        over_at, under_at, components, labels, edits, owned = parent or ({}, {}, (), {}, (), True)
        if not owned:  # every row too: a walk step may hand this build on, to be edited in place
            over_at, under_at = over_at.copy(), under_at.copy()
            labels = {k: list(row) for k, row in labels.items()}
        maps = over_at, under_at
        for k, start, stop, _ in edits:
            for pas in components[k][start:stop]:
                del (over_at if pas.role == OVER else under_at)[pas.crossing]
        # the components indexed anew: each with no parent maps, and one whose labels ran out
        indexed, rows = set() if parent else set(range(len(self.components))), {}
        for k, start, stop, passes in reversed(edits):  # the last first, so starts hold
            if k not in rows:
                rows[k] = labels.get(k) or list(range(len(components[k])))
            row = rows[k]
            new = row[start:stop]  # a swap's passes take its slots' labels
            if start == stop:  # an add's pair goes between its neighbours' labels, or past the last
                lo = row[start - 1] if start else -1
                hi = row[start] if start < len(row) else lo + 3
                row[start:start] = new = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                if not lo < new[0] < new[1] < hi:  # no float fits
                    indexed.add(k)
            elif not passes:  # a removal's slots go
                del row[start:stop]
            for pas, label in zip(passes, new):
                (over_at if pas.role == OVER else under_at)[pas.crossing] = k, label
        labels = {**labels, **rows}
        for k in indexed:
            labels.pop(k, None)
            _map_roles(maps, self.components, k)
        # racing readers build equal maps; the first published stays, its labels first
        for key, built in zip(("_labels", "_over_at", "_under_at"), (labels, *maps)):
            vars(self).setdefault(key, built)
        vars(self).pop("_parent", None)  # frees the parent's maps; a later racer builds anew
        return vars(self)[name]

    def _rewritten(self, edits, hand_over: bool = False) -> Diagram:
        """A rewrite's result, unvalidated: the sorted slice edits (k, start,
        stop, passes) of moves._edits applied from the last one back, with
        this diagram's max crossing id when known; __getattr__ builds its maps
        on first read from this diagram's maps and components and the edits.
        With hand_over, this diagram gives the result its maps and label lists
        to edit in place, drops its fresh-pass table and, if read later, indexes
        its components anew: for a walk step, which no one else reads first."""
        own = vars(self)
        components, top = list(self.components), own.get("_max_id")
        for k, start, stop, passes in reversed(edits):
            comp = components[k]
            if passes and top is not None and passes[0].crossing > top:  # an add: fresh ids
                top = max(passes[0].crossing, passes[-1].crossing)  # top it; a swap's never do
            elif not passes and top in (pas.crossing for pas in comp[start:stop]):  # a removal took it
                top = None
            components[k] = comp[:start] + passes + comp[stop:]
        new = object.__new__(Diagram)
        vars(new).update(components=tuple(components), _max_id=top)
        if "_over_at" in own:
            vars(new)["_parent"] = (own["_over_at"], own["_under_at"], own["components"],
                                    own["_labels"], edits, hand_over)
        if hand_over:
            for key in ("_over_at", "_under_at", "_labels", "_fresh"):
                own.pop(key, None)
        return new

    # -- basic queries ----------------------------------------------------

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def num_crossings(self) -> int:
        return sum(map(len, self.components)) // 2

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
            return _positions(self, self._over_at)[crossing]
        except KeyError:
            raise ValidationError(f"no crossing {crossing} in this diagram") from None

    def under_position(self, crossing: int) -> tuple[int, int]:
        self.over_position(crossing)
        return _positions(self, self._under_at)[crossing]

    def is_self_crossing(self, crossing: int) -> bool:
        """True when both passes of the crossing lie in one component."""
        return self.over_position(crossing)[0] == self.under_position(crossing)[0]

    def nonself_crossing_count(self) -> int:
        return 0 if len(self.components) == 1 else sum(  # a knot has no non-self crossing
            self._under_at[x][0] != k for x, (k, _) in self._over_at.items())

    def max_crossing_id(self) -> int:
        if vars(self).get("_max_id") is None:  # computed once per diagram, on first use
            vars(self)["_max_id"] = max(self._over_at, default=0)
        return self._max_id


class _Positions:
    """A labelled diagram's map read as crossing -> (component, position): a
    label's position is its index in its component's label list."""

    __slots__ = ("at", "rows")

    def __init__(self, at, rows):
        self.at, self.rows = at, rows

    def __getitem__(self, x):
        k, label = at = self.at[x]
        row = self.rows.get(k)
        return at if row is None else (k, bisect_left(row, label))

    def items(self):
        return ((x, self[x]) for x in self.at)


def _positions(d: Diagram, at):
    """d._over_at or d._under_at (at) as crossing -> (component, position)."""
    return _Positions(at, d._labels) if d._labels else at


def parse(text: str) -> Diagram:
    """Parse a Gauss-code string into a validated diagram.

    A well-formed code costs one grammar match, one lookup per token in
    _TOKEN_PASSES and Diagram's set and dict checks; other text goes to
    _raise_parse_error.  Raises ParseError (with the offending character
    offset) on grammar violations and ValidationError on structural ones.
    """
    if _CODE_RE.fullmatch(text) is None:
        _raise_parse_error(text)
    get = _TOKEN_PASSES.get
    try:
        components = [[] if tokens == ["()"] else [get(tok) or _token_pass(tok) for tok in tokens]
                      for tokens in map(str.split, text.split(";"))]
    except ValueError:  # an id with more digits than int() converts
        _raise_parse_error(text)
    return Diagram(components)


def _raise_parse_error(text: str) -> NoReturn:
    """Raise the first grammar violation of a text parse rejects: an empty
    component, then per component '()' mixed with passes, a token that is
    not a pass, or an id outside 1..10**4000 - 1, each at its offset."""
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
    for group in groups:
        if any(tok == "()" for tok, _ in group):
            if len(group) != 1:
                bad = next(pos for tok, pos in group if tok == "()")
                raise ParseError("'()' cannot be mixed with passes", bad)
            continue
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
    raise AssertionError("unreachable: every text parse rejects breaks the grammar")


def serialize(d: Diagram) -> str:
    """Canonical text form; parse(serialize(d)) == d."""
    parts = []
    for comp in d.components:
        if not comp:
            parts.append("()")
        else:
            parts.append(" ".join(
                f"{p.role}{p.crossing:d}{'+' if p.sign > 0 else '-'}" for p in comp))
    return " ; ".join(parts)


def semi_arcs(d: Diagram) -> list[SemiArcId]:
    """All semi-arcs, component-major; one per pass, or one for a bare loop."""
    return [SemiArcId(k, p)
            for k in range(d.num_components)
            for p in range(d.arc_count(k))]


def _semi_arc_offsets(d: Diagram, index: int, weights: tuple[int, int]) -> tuple[int, ...]:
    """Offsets of one component's semi-arcs from semi-arc 0.

    A pass steps the color by +w over and -w under, w being weights[0] at
    positive crossings and weights[1] at negative ones.  Semi-arc p follows
    pass p, so its offset sums the steps of passes 1..p (see component_shift).
    """
    plus, minus = {OVER: weights[0], UNDER: -weights[0]}, {OVER: weights[1], UNDER: -weights[1]}
    return tuple(accumulate([(plus if pas.sign > 0 else minus)[pas.role] for pas in d.components[index][1:]],
                            initial=0))


def component_shift(d: Diagram, index: int, weights: tuple[int, int] = (1, 1)) -> int:
    """Signed weight total of the passes of one component, by counting roles.

    An over pass adds +w and an under pass adds -w, where w is weights[0]
    at positive crossings and weights[1] at negative ones, so the total is
    weights[1] * (2 * #over - #passes) plus, over the positive passes alone,
    (weights[0] - weights[1]) * (2 * #over - #passes).  A self-crossing's two
    passes share a sign and cancel, so only non-self crossings count.  The
    diagram has colorings mod n exactly when n divides every component's shift.
    An index not an int in range raises IndexError, weights not two ints ValidationError.
    """
    if not (isinstance(index, int) and 0 <= index < d.num_components):
        raise IndexError("component index out of range")  # no value: an int past 4300 digits has no str
    pair = isinstance(weights, (tuple, list))
    if not (pair and len(weights) == 2 and isinstance(weights[0], int) and isinstance(weights[1], int)):
        types = [type(w).__name__ for w in weights[:3]] if pair else type(weights).__name__
        raise ValidationError(f"weights must be two ints, got {types}")  # types: an int may pass str()'s limit
    comp, (pos_w, neg_w) = d.components[index], weights
    shift = neg_w * (2 * [pas.role for pas in comp].count(OVER) - len(comp))
    if pos_w != neg_w:
        plus = [pas.role for pas in comp if pas.sign > 0]
        shift += (pos_w - neg_w) * (2 * plus.count(OVER) - len(plus))
    return shift


def connected_sum(d1: Diagram, d2: Diagram, s1: SemiArcId, s2: SemiArcId) -> Diagram:
    """Splice two knot diagrams along the given semi-arcs.

    d2's crossing ids are offset past d1's, d2's sequence is cut open at s2
    and inserted into d1's sequence at s1.  Both inputs must have exactly
    one component.
    """
    if d1.num_components != 1 or d2.num_components != 1:
        raise ValidationError("connected sum is defined for single-component diagrams")
    for d, s in ((d1, s1), (d2, s2)):
        if s.component != 0 or not isinstance(s.position, int) or not 0 <= s.position < d.arc_count(0):
            raise ValidationError(f"semi-arc {s} does not exist in its diagram")
    offset = d1.max_crossing_id()
    seq1 = d1.components[0]
    seq2 = tuple(_pass(p.crossing + offset, p.role, p.sign) for p in d2.components[0])
    cut = (s2.position + 1) % max(1, len(seq2))
    return Diagram((seq1[:s1.position + 1] + seq2[cut:] + seq2[:cut] + seq1[s1.position + 1:],))


def reverse_orientation(d: Diagram) -> Diagram:
    """Reverse every component's cyclic pass order; roles and signs stay."""
    return Diagram(tuple(tuple(reversed(comp)) for comp in d.components))

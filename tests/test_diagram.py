"""Gauss-code parsing, validation and the structural diagram operations."""

import copy
import dataclasses
import pickle
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import updown as ud
from updown.moves import _edits
from helpers import (DELTA, KINK, KNOT_CODES, reference_maps, reference_parse,
                     reference_validation_error, tangle)


@st.composite
def diagrams(draw, max_crossings=5, max_components=3):
    c = draw(st.integers(0, max_crossings))
    r = draw(st.integers(1, max_components))
    passes = []
    for x in range(1, c + 1):
        sign = draw(st.sampled_from((1, -1)))
        passes.append(ud.Pass(x, ud.OVER, sign))
        passes.append(ud.Pass(x, ud.UNDER, sign))
    order = draw(st.permutations(passes)) if passes else []
    cuts = sorted(draw(st.lists(
        st.integers(0, len(order)), min_size=r - 1, max_size=r - 1)))
    comps, prev = [], 0
    for cut in cuts + [len(order)]:
        comps.append(tuple(order[prev:cut]))
        prev = cut
    return ud.Diagram(tuple(comps))


# mostly well-formed passes on ids 1..4, with bad ids, signs and roles mixed in
messy_passes = st.builds(
    ud.Pass,
    st.sampled_from((1, 2, 3, 4) * 8 + (0, -1, 10**4000, 10**4000 - 1, True, 2.0, 1.5)),
    st.sampled_from((ud.OVER, ud.UNDER) * 8 + ("X", "o", "")),
    st.sampled_from((1, -1) * 8 + (0, 2, -2)),
)


@st.composite
def near_valid_passes(draw):
    """A valid diagram's passes with a few dropped, duplicated, re-signed or
    re-roled, or messy passes appended."""
    comps = [list(comp) for comp in draw(diagrams(max_crossings=4)).components]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(comps) - 1))
        comp = comps[k]
        edit = draw(st.sampled_from(("drop", "duplicate", "sign", "role", "append")))
        if edit == "append" or not comp:
            comp.insert(draw(st.integers(0, len(comp))), draw(messy_passes))
            continue
        p = draw(st.integers(0, len(comp) - 1))
        pas = comp[p]
        if edit == "drop":
            del comp[p]
        elif edit == "duplicate":
            comp.insert(draw(st.integers(0, len(comp))), pas)
        elif edit == "sign":
            comp[p] = ud.Pass(pas.crossing, pas.role, -pas.sign)
        else:
            other = ud.UNDER if pas.role == ud.OVER else ud.OVER
            comp[p] = ud.Pass(pas.crossing, other, pas.sign)
    return tuple(tuple(comp) for comp in comps)


class TestValidationReference:
    """Diagram(...) raises the first error of the rules, in their order."""

    def assert_agrees(self, components):
        expected = reference_validation_error(components)
        try:
            d = ud.Diagram(components)
        except ud.ValidationError as exc:
            assert str(exc) == expected, components
        else:
            assert expected is None, components
            assert d.crossing_ids() == tuple(sorted({pas.crossing for comp in components
                                                     for pas in comp}))
            for comp in components:
                for pas in comp:
                    assert d.crossing_sign(pas.crossing) == pas.sign

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.lists(messy_passes, max_size=8).map(tuple), max_size=3).map(tuple))
    def test_messy_pass_lists(self, components):
        self.assert_agrees(components)

    @settings(max_examples=400, deadline=None)
    @given(near_valid_passes())
    def test_edited_valid_diagrams(self, components):
        self.assert_agrees(components)

    @pytest.mark.parametrize("passes", [
        # the first crossing seen without a partner is reported, not the least id
        ((3, ud.OVER, 1), (1, ud.OVER, 1), (1, ud.UNDER, 1), (2, ud.UNDER, 1)),
        ((2, ud.UNDER, 1), (1, ud.OVER, 1), (3, ud.UNDER, 1), (1, ud.UNDER, 1)),
        # passes are checked in order: a mismatch on the second pass wins
        # over a duplicate or a bad id on the third
        ((1, ud.UNDER, -1), (1, ud.OVER, 1), (1, ud.OVER, 1)),
        ((1, ud.OVER, 1), (1, ud.UNDER, -1), (0, ud.OVER, 1)),
        # on one pass a duplicate role wins over a mismatch, a bad sign over a bad role
        ((1, ud.OVER, 1), (1, ud.OVER, -1), (1, ud.UNDER, -1)),
        ((1, "X", 0), (1, ud.OVER, 1)),
        # a float id is reported at its pass: after an earlier mismatch, before a
        # bad sign, and on the under pass that equals an int over pass
        ((1, ud.OVER, 1), (1, ud.UNDER, -1), (1.5, ud.OVER, 1), (1.5, ud.UNDER, 1)),
        ((2, ud.OVER, 1), (1.5, ud.OVER, 0), (1.5, ud.UNDER, 1), (2, ud.UNDER, 1)),
        ((1, ud.OVER, 1), (1.0, ud.UNDER, 1)),
    ])
    def test_first_error(self, passes):
        self.assert_agrees((tuple(ud.Pass(*pas) for pas in passes),))


class TestFastValidation:
    """The set and dict checks accept exactly what the rules accept, with the
    maps read off the passes, and leave every error to the ordered walk."""

    def assert_like_reference(self, components):
        expected = reference_validation_error(components)
        try:
            d = ud.Diagram(components)
        except ud.ValidationError as exc:
            assert str(exc) == expected, components
        else:
            assert expected is None, components
            for built, read in zip((d._over_at, d._under_at), reference_maps(components)):
                assert built == read
                assert {x: type(x) for x in built} == {x: type(x) for x in read}

    @pytest.mark.parametrize("components", [
        # a duplicate pass at the end of the last component
        (((1, ud.OVER, 1), (2, ud.UNDER, -1)), ((2, ud.OVER, -1), (1, ud.UNDER, 1), (2, ud.OVER, -1))),
        # a sign mismatch on the final crossing
        (((1, ud.OVER, 1), (2, ud.OVER, -1)), ((1, ud.UNDER, 1), (2, ud.UNDER, 1))),
        # ids equal as numbers: True and 1 are one crossing, both ints
        (((True, ud.OVER, 1), (1, ud.UNDER, 1)),),
        (((1, ud.UNDER, 1),), ((True, ud.OVER, True),)),
        # equal as numbers, but 2.0 is no int, over or under
        (((2, ud.OVER, 1),), ((2.0, ud.UNDER, 1),)),
        (((2.0, ud.OVER, 1), (2, ud.UNDER, 1)),),
    ])
    def test_checked_walk_decides(self, components):
        # the set checks decide; the walk only reports what they reject
        components = tuple(tuple(ud.Pass(*pas) for pas in comp) for comp in components)
        self.assert_like_reference(components)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(near_valid_passes(), diagrams(max_crossings=6, max_components=4).map(
        lambda d: d.components)))
    def test_agrees_with_checked_walk(self, components):
        self.assert_like_reference(components)

    def test_unhashable_id_raises_as_before(self):
        # TypeError is not a validation error; the walk raises it as it always did
        passes = (ud.Pass([1], ud.OVER, 1), ud.Pass([1], ud.UNDER, 1))
        with pytest.raises(TypeError, match="'<' not supported"):
            ud.Diagram((passes,))


_ZERO_PADDED = f"O1+ U1+ O{'0' * 4300}1+"  # an id with more digits than int() converts
# each grammar violation with its exact message and position
_SYNTAX_ERRORS = {
    "": ("empty input; a crossing-free component is written ()", 0),
    "   ": ("empty input; a crossing-free component is written ()", 0),
    "O1+ ;": ("empty component after ';'", 4),
    " O1+ U1+ \t;\n": ("empty component after ';'", 10),
    "; O1+": ("empty component before ';'", 0),
    "O1+ ; ; U1+": ("empty component before ';'", 6),
    "O1+;U1+": ("bad pass token 'O1+;U1+'", 0),
    "X1+": ("bad pass token 'X1+'", 0),
    "O1": ("bad pass token 'O1'", 0),
    "O1*": ("bad pass token 'O1*'", 0),
    "O0+ U0+": ("crossing ids must be >= 1 and below 10**4000", 0),
    _ZERO_PADDED: ("crossing ids must be >= 1 and below 10**4000", 8),
    "() O1+ U1+": ("'()' cannot be mixed with passes", 0),
    "O1+ () ; ()": ("'()' cannot be mixed with passes", 4),
    "() () ; O1+ U1+": ("'()' cannot be mixed with passes", 0),
}


class TestPass:
    def test_value_semantics(self):
        # a slotted Pass keeps the dataclass equality, hash and copies
        pas = ud.Pass(3, ud.OVER, -1)
        assert pas == ud.Pass(3, ud.OVER, -1) and pas != ud.Pass(3, ud.UNDER, -1)
        assert hash(pas) == hash(ud.Pass(3, ud.OVER, -1)) == hash((3, ud.OVER, -1))
        assert pas != (3, ud.OVER, -1)
        assert pickle.loads(pickle.dumps(pas)) == pas
        assert copy.deepcopy(pas) == pas
        with pytest.raises(dataclasses.FrozenInstanceError):
            pas.sign = 1
        assert not hasattr(pas, "__dict__")

    def test_private_constructor_matches(self, monkeypatch):
        # parse, connected_sum and the move edits build passes without
        # Pass.__init__; nothing may tell them apart from Pass(...)
        monkeypatch.setattr("updown.diagram._TOKEN_PASSES", {})
        d = ud.parse("O1+ U2- O3+ U1+ O2- U3+")
        again = ud.parse("O1+ U2- O3+ U1+ O2- U3+")  # its passes come from the token table
        assert all(a is b for a, b in zip(again.components[0], d.components[0]))
        summed = ud.connected_sum(d, ud.parse(DELTA), ud.SemiArcId(0, 1), ud.SemiArcId(0, 2))
        added = [pas for kind, variant, sites in ((ud.RI_ADD, "UO-", ((0, 3),)),
                                                  (ud.RII_ADD, "antiparallel+", ((0, 1), (0, 4))))
                 for _, _, _, passes in _edits(d, ud.MoveDescriptor(kind, variant, sites))
                 for pas in passes]
        built = list(d.components[0]) + list(summed.components[0]) + added
        assert len(added) == 6
        for pas in built:
            twin = ud.Pass(pas.crossing, pas.role, pas.sign)
            assert type(pas) is ud.Pass
            assert pas == twin and hash(pas) == hash(twin) and repr(pas) == repr(twin)
            assert pas != (pas.crossing, pas.role, pas.sign)
            assert pas != ud.Pass(pas.crossing, pas.role, -pas.sign)
            assert not hasattr(pas, "__dict__")
            assert dataclasses.astuple(pas) == dataclasses.astuple(twin)
            assert pickle.loads(pickle.dumps(pas)) == twin and copy.copy(pas) == twin
            with pytest.raises(dataclasses.FrozenInstanceError):
                pas.crossing = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                del pas.role


class TestParse:
    def test_positive_kink(self):
        d = ud.parse("O1+ U1+")
        assert d.num_components == 1
        assert d.num_crossings == 1
        assert d.crossing_sign(1) == 1

    def test_two_component_fixture(self):
        d = ud.parse("O1+ O2+ ; U1+ U2+")
        assert d.num_components == 2
        assert d.num_crossings == 2
        assert ud.component_shift(d, 0) == 2

    def test_missing_over_pass(self):
        with pytest.raises(ud.ValidationError, match="crossing 2"):
            ud.parse("O1+ U2+ U1+")

    def test_empty_component_token(self):
        d = ud.parse("()")
        assert d.components == ((),)

    @pytest.mark.parametrize("text", [
        pytest.param(text, id="zero-padded id") if text == _ZERO_PADDED else text
        for text in _SYNTAX_ERRORS])
    def test_syntax_errors_carry_position(self, text):
        message, position = _SYNTAX_ERRORS[text]
        with pytest.raises(ud.ParseError) as exc:
            ud.parse(text)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    @pytest.mark.parametrize("text", [
        "O1+\tU1+", "O1+\nU1+\n", "O1+\x1cU1+", "\u00a0O1+\u00a0U1+",
        "() ; O1+ U1+", " () ;\t() ", "O007+ U7+", f"O{'0' * 4289}7+ U7+",
    ])
    def test_valid_text_takes_one_path(self, text, monkeypatch):
        # only a malformed text reaches the token walk that finds its error
        def walked(text):
            raise AssertionError(f"{text!r} reached the error walk")

        monkeypatch.setattr("updown.diagram._raise_parse_error", walked)
        assert ud.parse(text) == reference_parse(text)

    @pytest.mark.parametrize("text", [
        "O1+ U1-",            # mismatched signs
        "O1+ O1+ U1+",        # duplicated role
        "O1+",                # crossing appears once
        "O1+ U1+ U1+",
    ])
    def test_validation_errors(self, text):
        with pytest.raises(ud.ValidationError):
            ud.parse(text)

    @pytest.mark.parametrize("passes,message", [
        (((1, ud.OVER, 1), (1, ud.OVER, 1), (1, ud.UNDER, 1)), "crossing 1 has two over passes"),
        (((1, ud.OVER, 1), (1, ud.UNDER, 1), (1, ud.UNDER, 1)), "crossing 1 has two under passes"),
        (((1, ud.OVER, 1), (1, ud.UNDER, -1)), "crossing 1 has mismatched signs"),
        (((1, ud.OVER, 1), (1, "X", 1)), "crossing 1: unknown role 'X'"),
        (((1, ud.OVER, 2), (1, ud.UNDER, 2)), "crossing 1: sign must be"),
        (((0, ud.OVER, 1), (0, ud.UNDER, 1)), "crossing ids must be >= 1"),
        (((2, ud.OVER, 1), (1, ud.OVER, 1), (1, ud.UNDER, 1)), "crossing 2 has no under pass"),
        (((2, ud.UNDER, 1), (1, ud.OVER, 1), (1, ud.UNDER, 1)), "crossing 2 has no over pass"),
        # serialize could not write 1.5 back as text that parse reads
        (((1.5, ud.OVER, 1), (1.5, ud.UNDER, 1)), "crossing 1.5: id must be an integer"),
    ])
    def test_constructor_validates(self, passes, message):
        # move results skip validation; the public constructor never does
        with pytest.raises(ud.ValidationError, match=re.escape(message)):
            ud.Diagram((tuple(ud.Pass(*pas) for pas in passes),))

    def test_list_components_become_tuples(self):
        # the constructor stores tuples, so a diagram built from lists is
        # equal to the parsed one, hashable, and rewritten like it
        d = ud.Diagram([[ud.Pass(1, ud.OVER, 1), ud.Pass(1, ud.UNDER, 1)]])
        parsed = ud.parse(KINK)
        assert d == parsed and hash(d) == hash(parsed)
        mv = ud.MoveDescriptor(ud.RI_ADD, "OU+", ((0, 1),))
        assert ud.apply_move(d, mv) == ud.apply_move(parsed, mv)

    def test_oversized_crossing_id(self):
        # more digits than int() converts is still a grammar error
        with pytest.raises(ud.ParseError) as exc:
            ud.parse(f"O1+ U1+ O{'9' * 5000}+")
        assert exc.value.position == 8

    def test_id_bound(self):
        # ids stay below 10**4000, so every fresh id max + 1 converts to text
        top = "9" * 4000
        assert ud.serialize(ud.parse(f"O{top}+ U{top}+")) == f"O{top}+ U{top}+"
        with pytest.raises(ud.ParseError) as exc:
            ud.parse(f"O1+ U1+ O1{'0' * 4000}+")
        assert exc.value.position == 8
        with pytest.raises(ud.ValidationError, match="below"):
            ud.Diagram(((ud.Pass(10**5000, ud.OVER, 1), ud.Pass(10**5000, ud.UNDER, 1)),))

    def test_whitespace_normalization(self):
        assert ud.serialize(ud.parse("O1-  O2+   U1- U2+")) == "O1- O2+ U1- U2+"

    def test_bool_id_roundtrip(self):
        # True is the int 1, so it is written as 1 and read back as an equal diagram
        d = ud.Diagram(((ud.Pass(True, ud.OVER, 1), ud.Pass(True, ud.UNDER, 1)),))
        assert ud.serialize(d) == "O1+ U1+"
        assert ud.parse(ud.serialize(d)) == d

    def test_roundtrip_empty(self):
        assert ud.serialize(ud.parse("()")) == "()"
        assert ud.serialize(ud.parse("()  ;   ()")) == "() ; ()"


def spelled(pas):
    return f"{pas.role}{pas.crossing}{'+' if pas.sign == 1 else '-'}"


class TestTokenPasses:
    """parse shares the Pass of each short token through a bounded table."""

    @pytest.fixture(autouse=True)
    def table(self, monkeypatch):
        table = {}
        monkeypatch.setattr("updown.diagram._TOKEN_PASSES", table)
        return table

    def test_table_stops_at_its_cap(self, table):
        cap = ud.diagram._TOKEN_PASSES_CAP
        ids = range(1, cap // 2 + 100)  # each sign's code holds 2 tokens per id
        for sign in "+-":
            text = " ".join(f"O{x}{sign} U{x}{sign}" for x in ids)
            assert ud.parse(text) == reference_parse(text)
            assert len(table) <= cap
        assert len(table) == cap
        assert all(spelled(pas) == tok for tok, pas in table.items())

    def test_only_short_tokens_are_stored(self, table):
        big = 10**3999
        for text in (f"O{big}+ U{big}+", f"O{'0' * 4289}7+ U1000000+ O1000000+ U7+",
                     "O999999- U000009- O9- U999999-"):
            assert ud.parse(text) == reference_parse(text)
        assert set(table) == {"U7+", "O999999-", "U000009-", "O9-", "U999999-"}
        assert table["U000009-"] == ud.Pass(9, ud.UNDER, -1)

    def test_repeated_parses_agree(self, table):
        text = "O1+ O2- ; U1+ O3+ U2- U3+ ; ()"
        first, second = ud.parse(text), ud.parse(text)
        assert first == second == reference_parse(text)
        assert (first._over_at, first._under_at) == (second._over_at, second._under_at)
        assert all(a is b for c1, c2 in zip(first.components, second.components)
                   for a, b in zip(c1, c2))

    def test_racing_parsers(self, table, monkeypatch):
        # each of 4 threads parses codes whose tokens the others also parse;
        # a racer can add at most one token past the cap
        monkeypatch.setattr("updown.diagram._TOKEN_PASSES_CAP", 64)
        texts = [" ".join(f"O{x}{sign} U{x}{sign}" for x in range(1 + r, 40 + r))
                 for r in range(0, 30, 3) for sign in "+-"]
        expected = [reference_parse(text) for text in texts]
        interval, start, seen = sys.getswitchinterval(), threading.Barrier(4), []

        def parse_all():
            start.wait(timeout=60)
            seen.append([ud.parse(text) for text in texts])

        sys.setswitchinterval(1e-6)  # switch threads often inside the parse
        try:
            threads = [threading.Thread(target=parse_all) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 4 and all(parsed == expected for parsed in seen)
        assert 64 <= len(table) <= 64 + 3
        assert all(spelled(pas) == tok for tok, pas in table.items())


class TestSemiArcs:
    @pytest.mark.parametrize("code,count", [("()", 1), (KINK, 2), (tangle(1), 4)])
    def test_counts(self, code, count):
        assert len(ud.semi_arcs(ud.parse(code))) == count

    def test_positions(self):
        assert ud.semi_arcs(ud.parse("() ; O1+ U1+")) == [
            ud.SemiArcId(0, 0), ud.SemiArcId(1, 0), ud.SemiArcId(1, 1)]


class TestComponentShift:
    def test_tangle_fixture(self):
        d = ud.parse(tangle(1))
        assert ud.component_shift(d, 0) == 2
        assert ud.component_shift(d, 1) == -2

    @pytest.mark.parametrize("code", KNOT_CODES)
    def test_knots_shift_zero(self, code):
        assert ud.component_shift(ud.parse(code), 0) == 0

    def test_weighted(self):
        d = ud.parse("O1- O2+ ; U1- U2+")
        assert ud.component_shift(d, 0, (3, 5)) == 8
        assert ud.component_shift(d, 1, (3, 5)) == -8
        # the negative self-crossing 2 steps +5 and -5 within component 0
        d = ud.parse("O1+ O2- U2- ; U1+")
        assert ud.component_shift(d, 0, (3, 5)) == 3
        assert ud.component_shift(d, 1, (3, 5)) == -3

    def test_self_crossings_excluded(self):
        # crossing 2 is a self-crossing of the first component
        d = ud.parse("O1+ O2+ U2+ ; U1+")
        assert ud.component_shift(d, 0) == 1

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            ud.component_shift(ud.parse("()"), 1)
        with pytest.raises(IndexError):
            ud.component_shift(ud.parse("()"), -1)

    @pytest.mark.parametrize("index", [1.0, "0", None])
    def test_index_not_an_int(self, index):
        with pytest.raises(IndexError, match="out of range"):
            ud.component_shift(ud.parse("O1+ ; U1+"), index)

    def test_index_too_long_to_print(self):
        with pytest.raises(IndexError, match="out of range"):
            ud.component_shift(ud.parse("()"), 10**5000)

    @pytest.mark.parametrize("weights, named", [
        (("a", "b"), "['str', 'str']"), ((1,), "['int']"), ((1.5, 1), "['float', 'int']"),
        ((1, 2, 3), "['int', 'int', 'int']"), ((10**5000,), "['int']"), (("a", 10**5000), "['str', 'int']"),
        ("ab", "str"), (None, "NoneType"), (2, "int")])
    def test_weights_not_two_ints(self, weights, named):
        with pytest.raises(ud.ValidationError, match="weights must be two ints") as exc:
            ud.component_shift(ud.parse("O1+ ; U1+"), 0, weights)
        assert str(exc.value).endswith(f"got {named}")

    def test_bool_weights_are_ints(self):
        d = ud.parse("O1+ O2- ; U1+ U2-")
        assert ud.component_shift(d, 0, (True, False)) == 1
        assert ud.component_shift(d, 0, [2, -1]) == 1


class TestSelfCrossing:
    def test_knot_crossing(self):
        assert ud.parse(KINK).is_self_crossing(1)

    def test_link_crossing(self):
        d = ud.parse(tangle(1))
        assert not d.is_self_crossing(1) and not d.is_self_crossing(2)

    def test_unknown_id(self):
        with pytest.raises(ud.ValidationError):
            ud.parse(KINK).is_self_crossing(2)

    @given(diagrams())
    @settings(max_examples=100, deadline=None)
    def test_nonself_count(self, d):
        xs = {pas.crossing for comp in d.components for pas in comp}
        assert d.nonself_crossing_count() == sum(not d.is_self_crossing(x) for x in xs)

    def test_knot_counts_without_its_maps(self):
        # a knot has no non-self crossing, so an unread move result stays unread
        out = ud.apply_move(ud.parse(DELTA), ud.MoveDescriptor(ud.RI_ADD, "OU+", ((0, 0),)))
        assert out.nonself_crossing_count() == 0
        assert "_over_at" not in vars(out)


class TestConnectedSum:
    def test_with_unknot_is_identity(self):
        d = ud.parse(DELTA)
        for p in range(4):
            out = ud.connected_sum(d, ud.parse("()"), ud.SemiArcId(0, p), ud.SemiArcId(0, 0))
            assert out == d

    def test_unknot_with_diagram_is_it_cut_open(self):
        d = ud.parse(DELTA)
        comp = d.components[0]
        for p in range(4):
            out = ud.connected_sum(ud.parse("()"), d, ud.SemiArcId(0, 0), ud.SemiArcId(0, p))
            assert out == ud.Diagram((comp[p + 1:] + comp[:p + 1],))

    def test_unknot_with_unknot(self):
        out = ud.connected_sum(ud.parse("()"), ud.parse("()"),
                               ud.SemiArcId(0, 0), ud.SemiArcId(0, 0))
        assert out == ud.parse("()")

    def test_kink_with_kink(self):
        out = ud.connected_sum(ud.parse(KINK), ud.parse(KINK),
                               ud.SemiArcId(0, 1), ud.SemiArcId(0, 1))
        assert ud.serialize(out) == "O1+ U1+ O2+ U2+"

    def test_crossing_counts_add(self):
        d1, d2 = ud.parse(DELTA), ud.parse(DELTA)
        out = ud.connected_sum(d1, d2, ud.SemiArcId(0, 2), ud.SemiArcId(0, 3))
        assert out.num_crossings == 4

    def test_rejects_links(self):
        with pytest.raises(ud.ValidationError):
            ud.connected_sum(ud.parse(tangle(1)), ud.parse("()"),
                             ud.SemiArcId(0, 0), ud.SemiArcId(0, 0))

    def test_rejects_bad_site(self):
        with pytest.raises(ud.ValidationError):
            ud.connected_sum(ud.parse(KINK), ud.parse(KINK),
                             ud.SemiArcId(0, 2), ud.SemiArcId(0, 0))

    @pytest.mark.parametrize("position", [1.5, "0"])
    def test_rejects_non_int_position(self, position):
        d = ud.parse(KINK)
        for s1, s2 in ((ud.SemiArcId(0, position), ud.SemiArcId(0, 0)),
                       (ud.SemiArcId(0, 0), ud.SemiArcId(0, position))):
            with pytest.raises(ud.ValidationError, match=r"does not exist in its diagram"):
                ud.connected_sum(d, d, s1, s2)


class TestReverse:
    def test_kink(self):
        assert ud.serialize(ud.reverse_orientation(ud.parse("O1+ U1+"))) == "U1+ O1+"

    def test_delta(self):
        assert ud.serialize(ud.reverse_orientation(ud.parse(DELTA))) == "U2+ U1- O2+ O1-"

    @pytest.mark.parametrize("code", KNOT_CODES + [tangle(2)])
    def test_involution(self, code):
        d = ud.parse(code)
        assert ud.reverse_orientation(ud.reverse_orientation(d)) == d


@given(diagrams())
@settings(max_examples=150, deadline=None)
def test_parse_serialize_roundtrip(d):
    assert ud.parse(ud.serialize(d)) == d


@given(diagrams())
@settings(max_examples=150, deadline=None)
def test_shifts_sum_to_zero(d):
    assert sum(ud.component_shift(d, k) for k in range(d.num_components)) == 0


@given(diagrams(max_components=2), st.integers(1, 4), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_weighted_shifts_sum_to_zero(d, n, pos, neg):
    assert sum(ud.component_shift(d, k, (pos, neg))
               for k in range(d.num_components)) == 0


@given(st.one_of(st.text(), st.text(alphabet="OU0123456789+-;() \n\t")))
@settings(max_examples=300, deadline=None)
def test_parse_raises_only_domain_errors(text):
    try:
        d = ud.parse(text)
    except (ud.ParseError, ud.ValidationError):
        return
    assert ud.parse(ud.serialize(d)) == d


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except (ud.ParseError, ud.ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@st.composite
def near_valid_codes(draw):
    """A valid code with one character, or a 5000-digit run, inserted."""
    code = draw(st.sampled_from(KNOT_CODES + [tangle(1), "() ; O1+ U1+", "O1+ O2+ ; U1+ U2+"]))
    at = draw(st.integers(0, len(code)))
    extra = draw(st.sampled_from(list("OU0123456789+-;() \t\n\x1c") + ["0" * 5000, "9" * 5000]))
    return code[:at] + extra + code[at:]


@given(st.one_of(near_valid_codes(), st.text()))
@settings(max_examples=400, deadline=None)
def test_parse_agrees_with_token_walk(text):
    # the same diagram, or the same error type, message and position
    assert _parse_outcome(ud.parse, text) == _parse_outcome(reference_parse, text)


@given(diagrams())
@settings(max_examples=100, deadline=None)
def test_reverse_preserves_shift(d):
    # the shift is a sum over the pass multiset, which reversal permutes
    rev = ud.reverse_orientation(d)
    for k in range(d.num_components):
        assert ud.component_shift(rev, k) == ud.component_shift(d, k)

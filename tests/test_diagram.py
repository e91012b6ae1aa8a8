"""Gauss-code parsing, validation and the structural diagram operations."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import updown as ud
from helpers import DELTA, KINK, KNOT_CODES, reference_validation_error, tangle


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
    st.sampled_from((1, 2, 3, 4) * 8 + (0, -1, 10**4000, 10**4000 - 1)),
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
    ])
    def test_first_error(self, passes):
        self.assert_agrees((tuple(ud.Pass(*pas) for pas in passes),))


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
        "", "   ", "O1+ ;", "; O1+", "O1+ ; ; U1+",
        "O1+;U1+", "X1+", "O1", "O1*", "O0+ U0+", "() O1+ U1+",
    ])
    def test_syntax_errors_carry_position(self, text):
        with pytest.raises(ud.ParseError) as exc:
            ud.parse(text)
        assert exc.value.position >= 0

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

    def test_roundtrip_empty(self):
        assert ud.serialize(ud.parse("()")) == "()"
        assert ud.serialize(ud.parse("()  ;   ()")) == "() ; ()"


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


class TestSelfCrossing:
    def test_knot_crossing(self):
        assert ud.parse(KINK).is_self_crossing(1)

    def test_link_crossing(self):
        d = ud.parse(tangle(1))
        assert not d.is_self_crossing(1) and not d.is_self_crossing(2)

    def test_unknown_id(self):
        with pytest.raises(ud.ValidationError):
            ud.parse(KINK).is_self_crossing(2)


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


@given(diagrams())
@settings(max_examples=100, deadline=None)
def test_reverse_preserves_shift(d):
    # the shift is a sum over the pass multiset, which reversal permutes
    rev = ud.reverse_orientation(d)
    for k in range(d.num_components):
        assert ud.component_shift(rev, k) == ud.component_shift(d, k)

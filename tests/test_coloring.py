"""Coloring solver, counting, colorability, maxord and color shifts."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import updown as ud
from helpers import DELTA, KINK, KNOT_CODES, VIRTUAL_TWO, F6, brute_colorings, tangle
from test_diagram import diagrams


def coloring_of(code, n, *colors):
    return ud.Coloring(ud.ColoringSpec(n), tuple(tuple(c) for c in colors))


class TestVerify:
    def test_crossing_free_component_is_vacuous(self):
        d = ud.parse("()")
        assert ud.verify_coloring(d, coloring_of("()", 5, [3]))

    def test_kink_consistent(self):
        # the arc after the over pass is one more than the arc after the
        # under pass, so (arc0, arc1) = (x + 1, x)
        d = ud.parse(KINK)
        assert ud.verify_coloring(d, coloring_of(KINK, 3, [0, 2]))
        assert not ud.verify_coloring(d, coloring_of(KINK, 3, [0, 1]))

    def test_partial_map_rejected(self):
        d = ud.parse(KINK)
        with pytest.raises(ud.ColoringError):
            ud.verify_coloring(d, coloring_of(KINK, 3, [0]))
        with pytest.raises(ud.ColoringError):
            ud.verify_coloring(d, coloring_of(KINK, 3, [0, 1], [2]))

    @pytest.mark.parametrize("code", ["()", KINK, DELTA, tangle(1), "O1- O2+ ; U1- U2+",
                                      "O1+ O2- U2- ; U1+"])
    @pytest.mark.parametrize("n, pos, neg", [(3, 1, 1), (4, 1, 1), (3, 3, 5), (4, 3, 5)])
    def test_accepts_exactly_the_brute_force_colorings(self, code, n, pos, neg):
        d = ud.parse(code)
        spec = ud.ColoringSpec(n, pos, neg)
        arcs = ud.semi_arcs(d)
        accepted = set()
        for values in itertools.product(range(n), repeat=len(arcs)):
            it = iter(values)
            colors = tuple(tuple(itertools.islice(it, d.arc_count(k)))
                           for k in range(d.num_components))
            if ud.verify_coloring(d, ud.Coloring(spec, colors)):
                accepted.add(values)
        brute = {tuple(c[arc] for arc in arcs) for c in brute_colorings(d, spec)}
        assert accepted == brute

    def test_matches_brute_force_on_all_assignments(self):
        d = ud.parse(DELTA)
        spec = ud.ColoringSpec(3)
        brute = {tuple(sorted(c.items())) for c in brute_colorings(d, spec)}
        solved = set()
        for c in ud.solve_colorings(d, spec):
            solved.add(tuple(sorted(
                (arc, c.color(arc)) for arc in ud.semi_arcs(d))))
        assert brute == solved


class TestSolveAndCount:
    @pytest.mark.parametrize("code", KNOT_CODES)
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_knots_have_n_colorings(self, code, n):
        d = ud.parse(code)
        spec = ud.ColoringSpec(n)
        found = ud.solve_colorings(d, spec)
        assert len(found) == n
        assert ud.count_colorings(d, spec) == n
        assert all(ud.verify_coloring(d, c) for c in found)

    def test_tangle_one_has_no_mod_four_coloring(self):
        d = ud.parse(tangle(1))
        assert ud.solve_colorings(d, ud.ColoringSpec(4)) == []
        assert ud.count_colorings(d, ud.ColoringSpec(4)) == 0

    def test_tangle_two_mod_four(self):
        d = ud.parse(tangle(2))
        spec = ud.ColoringSpec(4)
        found = ud.solve_colorings(d, spec)
        assert len(found) == 16
        assert ud.count_colorings(d, spec) == 16
        # frozen against the exhaustive filter over all 4**8 assignments
        assert len(brute_colorings(d, spec)) == 16

    def test_output_is_sorted(self):
        d = ud.parse(tangle(1))
        found = ud.solve_colorings(d, ud.ColoringSpec(2))
        flat = [sum(c.colors, ()) for c in found]
        assert flat == sorted(flat)

    def test_generalized_weights(self):
        d = ud.parse("O1- O2+ ; U1- U2+")
        # shifts are +-8 under weights (3, 5)
        for n, expect in [(2, 4), (4, 16), (8, 64), (3, 0), (5, 0)]:
            spec = ud.ColoringSpec(n, pos_shift=3, neg_shift=5)
            assert ud.count_colorings(d, spec) == expect
            assert len(ud.solve_colorings(d, spec)) == expect

    def test_generalized_against_brute(self):
        d = ud.parse(DELTA)
        for pos, neg in [(2, 1), (0, 3), (2, 2)]:
            spec = ud.ColoringSpec(4, pos, neg)
            assert ud.count_colorings(d, spec) == len(brute_colorings(d, spec))

    def test_enumeration_budget(self):
        # 4**20 colorings are counted in closed form but never built
        d = ud.parse(" ; ".join(["()"] * 20))
        spec = ud.ColoringSpec(4)
        assert ud.count_colorings(d, spec) == 4 ** 20
        with pytest.raises(ud.ColoringError, match="budget"):
            ud.solve_colorings(d, spec)

    def test_count_budget_boundary(self):
        # counts stay below 10**4000 and are exact up to it
        spec = ud.ColoringSpec(10)
        assert ud.count_colorings(ud.Diagram(((),) * 3999), spec) == 10**3999
        with pytest.raises(ud.ColoringError, match="budget"):
            ud.count_colorings(ud.Diagram(((),) * 4000), spec)

    @pytest.mark.parametrize("digits", [300, 5000])
    def test_budgets_never_build_the_power(self, digits):
        # (10**300)**20000 has six million digits; neither budget builds it,
        # no message prints n, and colorability is read off the shifts alone
        d = ud.parse(" ; ".join(["()"] * 20000))
        spec = ud.ColoringSpec(10**digits)
        assert ud.is_colorable(d, spec)
        for budgeted in (ud.count_colorings, ud.solve_colorings):
            with pytest.raises(ud.ColoringError, match="budget"):
                budgeted(d, spec)

    def test_modulus_one_always_colors(self):
        for code in [UNKNOT_ISH := "()", tangle(3), VIRTUAL_TWO]:
            d = ud.parse(code)
            assert ud.count_colorings(d, ud.ColoringSpec(1)) == 1

    def test_bad_modulus(self):
        with pytest.raises(ud.ColoringError):
            ud.ColoringSpec(0)


class TestColorability:
    @pytest.mark.parametrize("i", range(0, 7))
    def test_tangle_family(self, i):
        d = ud.parse(tangle(i))
        for n in range(1, 21):
            assert ud.is_colorable(d, ud.ColoringSpec(n)) == ((2 * i) % n == 0)


class TestMaxord:
    @pytest.mark.parametrize("i", range(0, 7))
    def test_tangle_family(self, i):
        assert ud.maxord(ud.parse(tangle(i))) == 2 * i

    def test_stand_in_fixture(self):
        assert ud.maxord(ud.parse(F6)) == 6

    @pytest.mark.parametrize("code", KNOT_CODES)
    def test_knots_are_zero(self, code):
        assert ud.maxord(ud.parse(code)) == 0

    def test_odd_shift(self):
        assert ud.maxord(ud.parse("O1+ ; U1+")) == 1

    def test_three_components_gcd(self):
        # shifts 2, 2, -4
        d = ud.parse("O1+ O2+ ; O3+ O4+ U1+ U2+ ; U3+ U4+")
        assert ud.maxord(d) == 2


class TestShiftColoring:
    def test_shift_by_zero_is_identity(self):
        d = ud.parse(DELTA)
        c = ud.solve_colorings(d, ud.ColoringSpec(4))[1]
        assert ud.shift_coloring(c, 0) == c

    @pytest.mark.parametrize("code", [KINK, DELTA, VIRTUAL_TWO])
    def test_shift_stays_valid(self, code):
        d = ud.parse(code)
        c = ud.solve_colorings(d, ud.ColoringSpec(5))[0]
        for i in range(5):
            assert ud.verify_coloring(d, ud.shift_coloring(c, i))

    @pytest.mark.parametrize("code", [KINK, DELTA, VIRTUAL_TWO])
    def test_orbit_is_the_whole_solution_set(self, code):
        d = ud.parse(code)
        found = ud.solve_colorings(d, ud.ColoringSpec(4))
        orbit = {ud.shift_coloring(found[0], i) for i in range(4)}
        assert orbit == set(found)


@given(diagrams(max_crossings=4), st.integers(1, 6))
@settings(max_examples=120, deadline=None)
def test_count_matches_enumeration(d, n):
    spec = ud.ColoringSpec(n)
    found = ud.solve_colorings(d, spec)
    assert ud.count_colorings(d, spec) == len(found)
    assert all(ud.verify_coloring(d, c) for c in found)


@given(diagrams(max_crossings=4), st.integers(1, 5),
       st.integers(-2, 3), st.integers(-2, 3))
@settings(max_examples=80, deadline=None)
def test_generalized_count_matches_enumeration(d, n, pos, neg):
    spec = ud.ColoringSpec(n, pos, neg)
    assert ud.count_colorings(d, spec) == len(ud.solve_colorings(d, spec))


@given(diagrams(max_crossings=4), st.integers(1, 5), st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_solution_set_closed_under_shift(d, n, i):
    spec = ud.ColoringSpec(n)
    found = ud.solve_colorings(d, spec)
    for c in found[:3]:
        assert ud.shift_coloring(c, i) in found


def test_colorable_iff_divides_maxord():
    for code in KNOT_CODES + [tangle(2), tangle(3), F6, "O1+ ; U1+"]:
        d = ud.parse(code)
        g = ud.maxord(d)
        for n in range(1, 15):
            expected = True if g == 0 else (g % n == 0)
            assert ud.is_colorable(d, ud.ColoringSpec(n)) == expected

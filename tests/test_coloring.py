"""Coloring solver, counting, colorability, maxord and color shifts."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import updown as ud
from helpers import DELTA, KINK, KNOT_CODES, VIRTUAL_TWO, F6, brute_colorings, brute_shift, tangle
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


class TestSpecIntegers:
    @pytest.mark.parametrize("args,name", [
        ((2.0,), "modulus"), ((2, 1.5), "pos_shift"), ((2, 1, "1"), "neg_shift"),
    ], ids=["modulus", "pos", "neg"])
    def test_non_int_rejected(self, args, name):
        with pytest.raises(ud.ColoringError, match=f"^{name} must be an integer, got "):
            ud.ColoringSpec(*args)

    def test_count_of_fractional_modulus(self):
        # the closed form once returned 2.5 colorings
        with pytest.raises(ud.ColoringError, match="^modulus must be an integer, got float$"):
            ud.count_colorings(ud.parse(KINK), ud.ColoringSpec(2.5))

    def test_solve_with_float_modulus(self):
        with pytest.raises(ud.ColoringError, match="^modulus must be an integer, got float$"):
            ud.solve_colorings(ud.parse(KINK), ud.ColoringSpec(2.0))

    def test_bool_is_an_int(self):
        assert ud.count_colorings(ud.parse(KINK), ud.ColoringSpec(True, False)) == 1


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

    def test_color_budget(self, monkeypatch):
        # 10**6 colorings of a 200-arc knot would be 2 * 10**8 colors: the
        # listing budget also bounds colorings times semi-arcs, at 10**7
        kinks = ud.parse(" ".join(f"O{x}+ U{x}+" for x in range(1, 101)))
        assert ud.count_colorings(kinks, ud.ColoringSpec(10**6)) == 10**6
        with pytest.raises(ud.ColoringError, match="200 semi-arcs exceed the listing budget"):
            ud.solve_colorings(kinks, ud.ColoringSpec(10**6))
        # at the boundary, made cheap: 10 colorings of 10 semi-arcs fit in 100
        monkeypatch.setattr(ud.coloring, "_COLOR_BUDGET", 100)
        d = ud.parse(" ".join(f"O{x}+ U{x}+" for x in range(1, 6)))
        assert len(ud.solve_colorings(d, ud.ColoringSpec(10))) == 10
        with pytest.raises(ud.ColoringError, match="budget"):
            ud.solve_colorings(d, ud.ColoringSpec(11))

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

    @pytest.mark.parametrize("modulus", [0, -3, -10**5000], ids=["zero", "negative", "huge"])
    def test_bad_modulus_names_the_rule(self, modulus):
        # a value of more than 4300 digits cannot be printed, so none is
        with pytest.raises(ud.ColoringError, match="^modulus must be >= 1$"):
            ud.ColoringSpec(modulus)


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

    def test_counted_without_offset_walk(self, monkeypatch):
        # maxord counts over passes; only the multiset's colorings walk offsets
        walks = []
        walk = ud.diagram._semi_arc_offsets

        def counted(*args):
            walks.append(args[1:])
            return walk(*args)

        monkeypatch.setattr("updown.coloring._semi_arc_offsets", counted)
        monkeypatch.setattr("updown.diagram._semi_arc_offsets", counted)
        ud.rii_report(ud.parse(DELTA), ud.parse(KINK), ud.builtin_table("example-f"))
        assert len(walks) == 2  # 4 when maxord walked each knot
        walks.clear()
        ud.rii_report(ud.parse("O1+ O2+ ; U1+ U2+"), ud.parse("O1+ ; U1+"))
        assert walks == []  # 4 when maxord walked each component
        # the shift is a count of roles, so deciding colorability walks no offsets
        d = ud.parse(F6)
        for spec in (ud.ColoringSpec(3), ud.ColoringSpec(4), ud.ColoringSpec(3, 2, -1)):
            ud.is_colorable(d, spec), ud.count_colorings(d, spec)
        ud.component_shift(d, 1, (1, -1))
        assert walks == []  # 13 when the colorability test walked each component

    @given(diagrams(max_crossings=6, max_components=4))
    @settings(max_examples=150, deadline=None)
    def test_gcd_of_component_shifts(self, d):
        g = 0
        for k in range(d.num_components):
            g = math.gcd(g, ud.component_shift(d, k))
        assert ud.maxord(d) == g


@given(diagrams(max_crossings=4, max_components=3), st.integers(1, 3),
       st.just((1, -1)) | st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
@settings(max_examples=100, deadline=None)
def test_shift_rule_matches_per_pass_sum(d, n, weights):
    for k in range(d.num_components):
        assert ud.component_shift(d, k, weights) == brute_shift(d, k, weights)
    spec = ud.ColoringSpec(n, *weights)
    assert ud.count_colorings(d, spec) == len(brute_colorings(d, spec))


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
    # every query reads one colorability test; check each against the others
    spec = ud.ColoringSpec(n, pos, neg)
    found = ud.solve_colorings(d, spec)
    assert ud.count_colorings(d, spec) == len(found)
    assert ud.is_colorable(d, spec) == bool(found)
    colors = [c.colors for c in found]  # sorted and distinct on links and weighted specs too
    assert colors == sorted(set(colors))
    if n ** len(ud.semi_arcs(d)) <= 10**4:  # the brute force tries every assignment
        assert len(found) == len(brute_colorings(d, spec))
    assert all(ud.verify_coloring(d, c) for c in found)
    if not found:
        zeros = tuple((0,) * d.arc_count(k) for k in range(d.num_components))
        assert not ud.verify_coloring(d, ud.Coloring(spec, zeros))
    # a one-arc component takes any color, so move a later arc of a longer one
    multi_arc = [k for k in range(d.num_components) if d.arc_count(k) > 1]
    if found and n > 1 and multi_arc:
        colors = [list(comp) for comp in found[0].colors]
        colors[multi_arc[0]][-1] += 1
        assert not ud.verify_coloring(d, ud.Coloring(spec, tuple(map(tuple, colors))))


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

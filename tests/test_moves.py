"""Rewrite enumeration, application, legality checks and random walks."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import updown as ud
from updown.moves import _RI_VARIANTS, _RII_VARIANTS, _RIII_ROWS, _MoveIndex, _descriptor_key
from helpers import (
    DELTA,
    F6,
    KINK,
    KNOT_CODES,
    TREFOIL,
    brute_local_moves,
    planted_code,
    random_knot_code,
    riii_strands,
    tangle,
)

F = ud.builtin_table("example-f")
G = ud.builtin_table("example-g")
ALL_KINDS = ud.MOVE_KINDS
RI_KINDS = frozenset({ud.RI_ADD, ud.RI_REMOVE, ud.RIII})
LOCAL_KINDS = (ud.RI_REMOVE, ud.RII_REMOVE, ud.RIII)

# every (T first, M first, B first, signs) key, legal rows and look-alikes
SLIDE_KEYS = list(itertools.product(("TM", "TB"), ("TM", "MB"), ("TB", "MB"),
                                    (1, -1), (1, -1), (1, -1)))


def realize_riii_row(row):
    """One-component diagram holding the row's configuration at pair starts
    0, 2 and 4; crossings TM=1, TB=2, MB=3."""
    top, mid, low = riii_strands(row)
    return ud.Diagram((tuple(top + mid + low),))


def assert_matches_oracle(d):
    removed = {ud.RI_REMOVE: 1, ud.RII_REMOVE: 2, ud.RIII: 0}
    for kind in LOCAL_KINDS:
        moves = ud.enumerate_moves(d, {kind})
        assert moves == brute_local_moves(d, kind), (ud.serialize(d), kind)
        for mv in moves:
            assert ud.apply_move(d, mv).num_crossings == d.num_crossings - removed[kind]


class TestEnumerateBasics:
    def test_unknot_ri_adds(self):
        moves = ud.enumerate_moves(ud.parse("()"), {ud.RI_ADD})
        assert len(moves) == 4
        assert [m.variant for m in moves] == ["OU+", "OU-", "UO+", "UO-"]

    def test_kink_ri_removes(self):
        moves = ud.enumerate_moves(ud.parse(KINK), {ud.RI_REMOVE})
        assert len(moves) == 2

    def test_rii_remove_on_opposite_pair(self):
        moves = ud.enumerate_moves(ud.parse("O1+ O2- ; U1+ U2-"), {ud.RII_REMOVE})
        assert len(moves) >= 1
        out = ud.apply_move(ud.parse("O1+ O2- ; U1+ U2-"), moves[0])
        assert ud.serialize(out) == "() ; ()"

    def test_same_sign_pair_is_not_removable(self):
        assert ud.enumerate_moves(ud.parse(tangle(1)), {ud.RII_REMOVE}) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ud.MoveError):
            ud.enumerate_moves(ud.parse("()"), {"RIV"})

    def test_output_is_sorted(self):
        d = ud.parse("O1+ U1+ ; O2- U2-")
        moves = ud.enumerate_moves(d, ALL_KINDS)
        assert moves == sorted(moves, key=_descriptor_key)

    def test_index_matches_enumeration(self):
        # the positional sampler used by random_walk must agree exactly
        for code in ["()", KINK, DELTA, tangle(1), "O1+ U1+ ; ()", TREFOIL]:
            d = ud.parse(code)
            for kinds in [ALL_KINDS, RI_KINDS, {ud.RII_ADD, ud.RII_REMOVE}]:
                index = _MoveIndex(d, kinds)
                listed = [index.descriptor(i) for i in range(index.total)]
                assert listed == ud.enumerate_moves(d, kinds)


class TestKinkMoves:
    def test_add_to_unknot(self):
        mv = ud.MoveDescriptor(ud.RI_ADD, "OU+", ((0, 0),))
        assert ud.serialize(ud.apply_move(ud.parse("()"), mv)) == "O1+ U1+"

    @pytest.mark.parametrize("variant", ["OU+", "OU-", "UO+", "UO-"])
    @pytest.mark.parametrize("code", ["()", DELTA, tangle(1)])
    def test_add_then_remove_is_identity(self, code, variant):
        d = ud.parse(code)
        for p in range(d.arc_count(0)):
            grown = ud.apply_move(d, ud.MoveDescriptor(ud.RI_ADD, variant, ((0, p),)))
            site = ((0, p + 1 if d.components[0] else 0),)
            back = ud.apply_move(grown, ud.MoveDescriptor(ud.RI_REMOVE, variant, site))
            assert back == d

    def test_fresh_ids(self):
        d = ud.apply_move(ud.parse(DELTA), ud.MoveDescriptor(ud.RI_ADD, "UO-", ((0, 3),)))
        assert d.num_crossings == 3
        assert 3 in d.crossing_ids()

    def test_stale_remove(self):
        with pytest.raises(ud.MoveError):
            ud.apply_move(ud.parse(DELTA), ud.MoveDescriptor(ud.RI_REMOVE, "OU+", ((0, 0),)))

    def test_no_fresh_id_at_the_bound(self):
        # crossing ids stay below 10**4000: a max id of 10**4000 - 2 leaves one
        # fresh id, enough for RI-add but not RII-add, and 10**4000 - 1 none
        for top, ri_adds in ((10**4000 - 2, 4 * 2), (10**4000 - 1, 0)):
            d = ud.Diagram(((ud.Pass(top, ud.OVER, 1), ud.Pass(top, ud.UNDER, 1)),))
            kinds = [mv.kind for mv in ud.enumerate_moves(d, ud.MOVE_KINDS)]
            assert kinds == [ud.RI_ADD] * ri_adds + [ud.RI_REMOVE] * 2
            with pytest.raises(ud.MoveError, match="fresh"):
                ud.apply_move(d, ud.MoveDescriptor(ud.RII_ADD, "parallel+", ((0, 0), (0, 1))))
        with pytest.raises(ud.MoveError, match="fresh"):
            ud.apply_move(d, ud.MoveDescriptor(ud.RI_ADD, "OU+", ((0, 0),)))

    def test_remove_variant_must_match(self):
        with pytest.raises(ud.MoveError):
            ud.apply_move(ud.parse(KINK), ud.MoveDescriptor(ud.RI_REMOVE, "UO+", ((0, 0),)))


class TestPokeMoves:
    @pytest.mark.parametrize("variant", ["parallel+", "parallel-",
                                         "antiparallel+", "antiparallel-"])
    def test_add_then_remove_across_components(self, variant):
        d = ud.parse("O1+ U1+ ; ()")
        mv = ud.MoveDescriptor(ud.RII_ADD, variant, ((0, 1), (1, 0)))
        grown = ud.apply_move(d, mv)
        assert grown.num_crossings == 3
        removal = next(
            m for m in ud.enumerate_moves(grown, {ud.RII_REMOVE})
            if m.variant == variant and {grown.components[m.sites[0][0]][m.sites[0][1]].crossing,
                                         grown.components[m.sites[0][0]][(m.sites[0][1] + 1) %
                                         len(grown.components[m.sites[0][0]])].crossing} == {2, 3})
        assert ud.apply_move(grown, removal) == d

    @pytest.mark.parametrize("variant", ["parallel+", "antiparallel-"])
    def test_add_within_one_component(self, variant):
        d = ud.parse(DELTA)
        grown = ud.apply_move(d, ud.MoveDescriptor(ud.RII_ADD, variant, ((0, 0), (0, 2))))
        assert grown.num_crossings == 4
        # both inserted crossings are self-crossings, so shifts are untouched
        assert ud.component_shift(grown, 0) == 0

    def test_same_arc_rejected(self):
        with pytest.raises(ud.MoveError):
            ud.apply_move(ud.parse(DELTA),
                          ud.MoveDescriptor(ud.RII_ADD, "parallel+", ((0, 1), (0, 1))))

    def test_maxord_steps_by_at_most_two(self):
        for code in [tangle(0), tangle(1), tangle(3), F6, "O1+ ; U1+"]:
            d = ud.parse(code)
            before = ud.maxord(d)
            for mv in ud.enumerate_moves(d, {ud.RII_ADD, ud.RII_REMOVE}):
                assert abs(ud.maxord(ud.apply_move(d, mv)) - before) in (0, 2)


class TestTripleSlide:
    @pytest.mark.parametrize("row", sorted(_RIII_ROWS), ids=str)
    def test_row_is_found_and_involutive(self, row):
        d = realize_riii_row(row)
        sites = ((0, 0), (0, 2), (0, 4))
        moves = [m for m in ud.enumerate_moves(d, {ud.RIII}) if m.sites == sites]
        assert any(m.variant == _RIII_ROWS[row] for m in moves)
        mv = next(m for m in moves if m.variant == _RIII_ROWS[row])
        slid = ud.apply_move(d, mv)
        assert slid != d
        again = next(m for m in ud.enumerate_moves(slid, {ud.RIII})
                     if m.sites == sites and m.variant == mv.variant)
        assert ud.apply_move(slid, again) == d

    @pytest.mark.parametrize("row", sorted(_RIII_ROWS), ids=str)
    def test_row_preserves_weight_multisets(self, row):
        d = realize_riii_row(row)
        mv = next(m for m in ud.enumerate_moves(d, {ud.RIII})
                  if m.sites == ((0, 0), (0, 2), (0, 4)))
        slid = ud.apply_move(d, mv)
        for table in (F, G):
            assert ud.phi_multiset(d, table) == ud.phi_multiset(slid, table)

    def test_illegal_sign_combination_is_not_listed(self):
        # same structure as a legal row but with a sign pattern outside the table
        bad = ("TM", "TM", "TB", 1, 1, -1)
        assert bad not in _RIII_ROWS
        d = realize_riii_row(bad)
        assert [m for m in ud.enumerate_moves(d, {ud.RIII})
                if m.sites == ((0, 0), (0, 2), (0, 4))] == []

    def test_stale_variant_rejected(self):
        row = ("TM", "TM", "TB", 1, 1, 1)
        d = realize_riii_row(row)
        wrong = ud.MoveDescriptor(ud.RIII, 3, ((0, 0), (0, 2), (0, 4)))
        with pytest.raises(ud.MoveError):
            ud.apply_move(d, wrong)

    def test_results_are_valid_diagrams(self):
        for row, variant in _RIII_ROWS.items():
            d = realize_riii_row(row)
            for mv in ud.enumerate_moves(d, {ud.RIII}):
                out = ud.apply_move(d, mv)
                assert ud.parse(ud.serialize(out)) == out


class TestLocalOracle:
    """The one scan behind the three local kinds against brute force."""

    @pytest.mark.parametrize("components", [1, 2, 3])
    def test_planted_diagrams(self, components):
        rng = random.Random(500 + components)
        for _ in range(150):
            assert_matches_oracle(ud.parse(planted_code(rng, components)))

    def test_fixtures_and_random_knots(self):
        rng = random.Random(77)
        codes = KNOT_CODES + [tangle(1), tangle(2), F6, "O1+ O2- ; U1+ U2-",
                              "O1+ O2- ; U2- U1+", "O1+ O2- U1+ U2-", "O1- O2+ U2+ U1-"]
        codes += [random_knot_code(rng, 8) for _ in range(100)]
        for code in codes:
            assert_matches_oracle(ud.parse(code))

    @pytest.mark.parametrize("layout", ["one", "bottom-alone", "each-alone"])
    def test_every_slide_key(self, layout):
        # a strand alone on a two-pass component is adjacent both ways round
        for key in SLIDE_KEYS:
            top, mid, low = riii_strands(key)
            comps = {"one": [top + mid + low],
                     "bottom-alone": [top + mid, low],
                     "each-alone": [top, mid, low]}[layout]
            d = ud.Diagram(tuple(tuple(comp) for comp in comps))
            assert_matches_oracle(d)
            if key in _RIII_ROWS:
                assert any(mv.variant == _RIII_ROWS[key]
                           for mv in ud.enumerate_moves(d, {ud.RIII}))


FUZZ_FIXTURES = [ud.parse(code) for code in (
    "()", KINK, DELTA, TREFOIL, tangle(1), "O1+ ; U1+", "O1+ O2- ; U1+ U2-",
    "O1+ U2- ; O2- U3+ ; O3+ U1+",
)] + [realize_riii_row(row) for row in sorted(_RIII_ROWS)[::5]] + [
    ud.Diagram((tuple(top + mid), tuple(low)))
    for top, mid, low in map(riii_strands, sorted(_RIII_ROWS)[1::5])]

_SITE = st.tuples(st.integers(-2, 12), st.integers(-2, 12))
_SITES = st.lists(_SITE, max_size=3).map(tuple)
_VARIANTS = st.sampled_from(_RI_VARIANTS + _RII_VARIANTS + tuple(range(10)) + ("", "x", None))
_JUNK = st.builds(ud.MoveDescriptor, st.sampled_from(sorted(ALL_KINDS) + ["RIV"]),
                  _VARIANTS, _SITES)


def _near(mv):
    """The descriptor with its variant, its sites or one site replaced."""
    return st.one_of(
        _VARIANTS.map(lambda v: mv._replace(variant=v)),
        _SITES.map(lambda s: mv._replace(sites=s)),
        st.tuples(st.integers(0, len(mv.sites) - 1), _SITE).map(
            lambda t: mv._replace(sites=mv.sites[:t[0]] + (t[1],) + mv.sites[t[0] + 1:])),
    )


class TestApplyFuzz:
    @given(st.data())
    @settings(max_examples=600, deadline=None)
    def test_applies_or_raises_move_error(self, data):
        d = data.draw(st.sampled_from(FUZZ_FIXTURES))
        legal = ud.enumerate_moves(d, {data.draw(st.sampled_from(sorted(ALL_KINDS)))})
        if legal:
            picks = st.sampled_from(legal)
            mv = data.draw(st.one_of(_JUNK, picks, picks.flatmap(_near)))
        else:
            mv = data.draw(_JUNK)
        try:
            out = ud.apply_move(d, mv)
        except ud.MoveError:
            out = None
        else:
            assert ud.parse(ud.serialize(out)) == out
        if mv.kind in LOCAL_KINDS:
            assert (out is not None) == (mv in ud.enumerate_moves(d, {mv.kind}))


class TestRandomWalk:
    def test_zero_steps(self):
        assert ud.random_walk(ud.parse("()"), 0, RI_KINDS, seed=5) == []

    def test_determinism(self):
        d = ud.parse(DELTA)
        t1 = ud.random_walk(d, 60, RI_KINDS, seed=123)
        t2 = ud.random_walk(d, 60, RI_KINDS, seed=123)
        assert t1 == t2

    def test_seed_changes_trajectory(self):
        d = ud.parse(DELTA)
        assert ud.random_walk(d, 40, RI_KINDS, seed=1) != ud.random_walk(d, 40, RI_KINDS, seed=2)

    def test_stalls_recorded(self):
        walk = ud.random_walk(ud.parse("()"), 3, {ud.RI_REMOVE}, seed=0)
        assert walk == [(None, ud.parse("()"))] * 3

    def test_empty_kinds_rejected(self):
        with pytest.raises(ud.MoveError):
            ud.random_walk(ud.parse("()"), 1, frozenset(), seed=0)

    def test_walk_preserves_multiset_sample(self):
        for code in [KINK, DELTA]:
            d = ud.parse(code)
            base = ud.phi_multiset(d, F)
            for mv, current in ud.random_walk(d, 40, RI_KINDS, seed=7):
                assert ud.phi_multiset(current, F) == base

    def test_walk_diagrams_stay_valid(self):
        d = ud.parse(tangle(1))
        for mv, current in ud.random_walk(d, 40, ALL_KINDS, seed=11):
            assert ud.parse(ud.serialize(current)) == current


def test_virtual_moves_constant():
    assert ud.VIRTUAL_MOVES == ("VRI", "VRII", "VRIII", "VRIV")

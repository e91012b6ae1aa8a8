"""Rewrite enumeration, application, legality checks and random walks."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import updown as ud
from updown import moves
from updown.moves import (
    _RI_VARIANTS,
    _RII_VARIANTS,
    _RIII_ROWS,
    _MoveIndex,
    _descriptor_key,
    _rescan,
)
from helpers import (
    DELTA,
    F6,
    KINK,
    KNOT_CODES,
    TREFOIL,
    brute_add,
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


class TestAddOracle:
    """Both add kinds against brute_add, which places the inserted passes
    while walking the unmodified diagram."""

    @pytest.mark.parametrize("code", ["()", "() ; ()", "O1+ U1+ ; ()", DELTA, tangle(1)])
    def test_every_variant_arc_and_arc_pair(self, code):
        d = ud.parse(code)
        arcs = [(k, p) for k in range(d.num_components) for p in range(d.arc_count(k))]
        adds = [ud.MoveDescriptor(ud.RI_ADD, variant, (arc,))
                for variant in ("OU+", "OU-", "UO+", "UO-") for arc in arcs]
        # ordered pairs, so same-component pairs come in both orders
        adds += [ud.MoveDescriptor(ud.RII_ADD, variant, pair)
                 for variant in ("parallel+", "parallel-", "antiparallel+", "antiparallel-")
                 for pair in itertools.permutations(arcs, 2)]
        for mv in adds:
            assert ud.apply_move(d, mv) == brute_add(d, mv), mv


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


def _grown(code, seed, kinds=ALL_KINDS, steps=40):
    """The last diagram of a seeded walk; walks over every kind mostly add pokes."""
    return ud.serialize(ud.random_walk(ud.parse(code), steps, kinds, seed)[-1][1])


# twenty kinks of alternating sign and order
KINKS = " ".join(f"O{x}+ U{x}+" if x % 2 else f"U{x}- O{x}-" for x in range(1, 21))
LOCAL_KIND_SETS = [frozenset(c) for r in (1, 2, 3) for c in itertools.combinations(LOCAL_KINDS, r)]
ADD_KIND_SETS = [frozenset(), {ud.RI_ADD}, {ud.RII_ADD}, {ud.RI_ADD, ud.RII_ADD}]
CARRY_STARTS = (
    [planted_code(random.Random(seed), c) for c in (1, 2, 3) for seed in range(4)]
    + KNOT_CODES
    + [tangle(1), tangle(2), "O1+ U2- ; O2- U3+ ; O3+ U1+", "() ; O1+ U1+",
       "O1+ O2- ; U1+ U2-", "O1+ O2- ; U2- U1+ ; ()", KINKS]
    + [_grown(code, seed) for seed, code in enumerate(
        [DELTA, tangle(2), TREFOIL, "O1+ U2- ; O2- U3+ ; O3+ U1+", planted_code(random.Random(5), 2)])]
)


class TestCarriedIndex:
    """random_walk rescans only next to the last move; its carried list of
    local descriptors must equal the full scan at every step."""

    @pytest.mark.parametrize("local", LOCAL_KIND_SETS, ids=lambda k: ",".join(sorted(k)))
    @pytest.mark.parametrize("adds", ADD_KIND_SETS, ids=lambda k: ",".join(sorted(k)) or "none")
    def test_equals_full_scan(self, monkeypatch, local, adds):
        kinds = local | adds
        checked = []

        def rescan(old, new, mv, kinds, carried):
            out = _rescan(old, new, mv, kinds, carried)
            assert out == _MoveIndex(new, kinds).local, (ud.serialize(old), mv)
            checked.append(mv)
            return out

        monkeypatch.setattr(moves, "_rescan", rescan)
        for i, code in enumerate(CARRY_STARTS):
            ud.random_walk(ud.parse(code), 30, kinds, seed=i)
        assert len(checked) >= 50

    def test_survivors_drop_by_broken_pair(self):
        # the kink lands inside no pair of the slide at (0,11),(0,13),(0,9),
        # though the slide's MB crossing 1 sits next to the kink's site
        d = ud.parse("O1- U2+ O2+ U3- O3- U4- O4- U1- U5+ O5+ O6- U6-")
        mv = ud.MoveDescriptor(ud.RI_ADD, "OU+", ((0, 1),))
        new = ud.apply_move(d, mv)
        carried = _rescan(d, new, mv, ALL_KINDS, _MoveIndex(d, ALL_KINDS).local)
        assert carried == _MoveIndex(new, ALL_KINDS).local
        assert ((0, 11), (0, 13), (0, 9)) in [m.sites for m in carried if m.kind == ud.RIII]


RI_KINDS_AND_SLIDES = frozenset({ud.RI_ADD, ud.RI_REMOVE, ud.RIII})
LOCAL = frozenset(LOCAL_KINDS)
# (start, kinds, seed, steps, digest); the digests were taken before random_walk
# carried its local descriptors from step to step, and must never change
WALK_GOLDENS = [
    (DELTA, ALL_KINDS, 0, 60, "c055919b4058e76c"),
    (TREFOIL, ALL_KINDS, 1, 60, "4cf8b8b2f8cd1b7f"),
    (TREFOIL, RI_KINDS_AND_SLIDES, 2, 80, "029ecfd70339d1f1"),
    (tangle(2), ALL_KINDS, 3, 60, "e322d74a36e777bd"),
    ("O1+ U2- ; O2- U3+ ; O3+ U1+", ALL_KINDS, 4, 60, "52cb8a507b1fca1c"),
    ("() ; O1+ U1+", {ud.RII_ADD, ud.RII_REMOVE, ud.RIII}, 5, 60, "0130174e5bcbf0d6"),
    (F6, LOCAL, 6, 40, "6467715d2f56c5d3"),
    (planted_code(random.Random(7), 1), ALL_KINDS, 7, 80, "5abfe203faa459a9"),
    (planted_code(random.Random(8), 2), {ud.RII_ADD, ud.RII_REMOVE, ud.RIII}, 8, 80,
     "e4813d3ae302651a"),
    (planted_code(random.Random(9), 3), LOCAL | {ud.RI_ADD}, 9, 80, "84b98c3236bd02df"),
    (random_knot_code(random.Random(10), 40), ALL_KINDS, 10, 100, "59d08f68bcd943d1"),
    ("O1- U2- O2- U1-", {ud.RIII, ud.RI_ADD}, 11, 60, "505d797a022070c2"),
    (KINKS, RI_KINDS_AND_SLIDES, 12, 120, "989d0c9725b8fd16"),
    (_grown(DELTA, 0), LOCAL, 20, 60, "36b9e58a98c67fe1"),
    (_grown(TREFOIL, 1), {ud.RII_REMOVE, ud.RIII}, 21, 60, "fddeb26100bb8b84"),
    (_grown(tangle(2), 2), {ud.RIII}, 22, 60, "b8edf11f6dae1c98"),
    (_grown("O1+ U2- ; O2- U3+ ; O3+ U1+", 3), LOCAL | {ud.RI_ADD}, 23, 80, "1666bdfae12ad0fc"),
    (_grown("() ; O1+ U1+", 4, {ud.RII_ADD, ud.RI_ADD}), LOCAL, 24, 60, "a4452383dc243f7d"),
    (_grown(planted_code(random.Random(5), 2), 5), {ud.RI_REMOVE, ud.RIII}, 25, 60,
     "f522cea68730ede7"),
    (_grown(random_knot_code(random.Random(6), 30), 6, steps=30), LOCAL, 26, 60,
     "16a61bab6a19fc2d"),
]


@pytest.mark.parametrize("code,kinds,seed,steps,digest", WALK_GOLDENS,
                         ids=[f"seed{case[2]}" for case in WALK_GOLDENS])
def test_walk_trajectory_golden(code, kinds, seed, steps, digest):
    h = hashlib.sha256()
    for mv, d in ud.random_walk(ud.parse(code), steps, kinds, seed):
        step = "stall" if mv is None else f"{mv.kind}/{mv.variant}@{mv.sites}"
        h.update(f"{step} {ud.serialize(d)}\n".encode())
    assert h.hexdigest()[:16] == digest


def test_virtual_moves_constant():
    assert ud.VIRTUAL_MOVES == ("VRI", "VRII", "VRIII", "VRIV")

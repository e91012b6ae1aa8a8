"""Rewrite enumeration, application, legality checks and random walks."""

import copy
import hashlib
import itertools
import random
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import updown as ud
from updown import diagram, moves
from updown.moves import (
    _RI_VARIANTS,
    _RII_VARIANTS,
    _RIII_ROWS,
    _MoveIndex,
    _descriptor_key,
    _edits,
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
    random_link_code,
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


def assert_indexed(out):
    """A move result's maps, built on first read or derived from its
    parent's, give every crossing the over and under positions, and the
    result the max crossing id and crossing count, that the validating
    constructor builds from its components."""
    full = ud.Diagram(out.components)
    assert out._over_at.keys() == full._over_at.keys() == out._under_at.keys(), ud.serialize(out)
    assert (([(out.over_position(x), out.under_position(x)) for x in full._over_at],
             out.max_crossing_id(), out.num_crossings)
            == ([(full._over_at[x], full._under_at[x]) for x in full._over_at],
                full.max_crossing_id(), len(full._over_at))), ud.serialize(out)


def record_builds(monkeypatch):
    """Checks each move result's maps with assert_indexed right after they are
    built from its parent's, while it still holds the maps it built, and
    records per result, keyed by its id: whether it kept its parent's two maps
    and label lists as its own, the entries it wrote and deleted, counted
    against a copy of the parent's maps taken before the build, and its
    labelled components."""
    builds, build = {}, ud.Diagram.__getattr__

    def recorded(self, name):
        parent = vars(self).get("_parent")
        before = parent and (dict(parent[0]), dict(parent[1]))
        value = build(self, name)
        if parent:
            own = vars(self)
            pairs = (before[0], own["_over_at"]), (before[1], own["_under_at"])
            builds[id(self)] = (
                (own["_over_at"] is parent[0], own["_under_at"] is parent[1],
                 *(own["_labels"][k] is row for k, row in parent[3].items() if k in own["_labels"])),
                sum(old.get(x) is not v for old, at in pairs for x, v in at.items()),
                sum(len(old.keys() - at.keys()) for old, at in pairs),
                own["_labels"].keys())
            assert_indexed(self)
        return value

    monkeypatch.setattr(ud.Diagram, "__getattr__", recorded)
    return builds


def assert_matches_oracle(d):
    removed = {ud.RI_REMOVE: 1, ud.RII_REMOVE: 2, ud.RIII: 0}
    for kind in LOCAL_KINDS:
        moves = ud.enumerate_moves(d, {kind})
        assert moves == brute_local_moves(d, kind), (ud.serialize(d), kind)
        for mv in moves:
            out = ud.apply_move(d, mv)
            assert out.num_crossings == d.num_crossings - removed[kind]
            assert_indexed(out)


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

    @pytest.mark.parametrize("kinds", ["RI-add", None, 3, [["RI-add"]], [{ud.RIII}]],
                             ids=["str", "None", "int", "list-item", "set-item"])
    def test_kinds_not_a_collection_rejected(self, kinds):
        # a bare str would read as its letters, and None, an int or an
        # unhashable item would raise from inside frozenset
        d = ud.parse(KINK)
        for call in (lambda: ud.enumerate_moves(d, kinds), lambda: ud.random_walk(d, 2, kinds, 0)):
            with pytest.raises(ud.MoveError, match=r"^kinds must be a collection of move kinds, got "):
                call()

    def test_unknown_kinds_of_mixed_types_named(self):
        with pytest.raises(ud.MoveError, match=r"^unknown move kinds: \[1, 'RIV'\]$"):
            ud.enumerate_moves(ud.parse("()"), {"RIV", 1, ud.RI_ADD})

    def test_output_is_sorted(self):
        d = ud.parse("O1+ U1+ ; O2- U2-")
        moves = ud.enumerate_moves(d, ALL_KINDS)
        assert moves == sorted(moves, key=_descriptor_key)

    def test_index_matches_enumeration(self):
        # the positional sampler used by random_walk must agree exactly, also
        # where the largest id leaves room for an RI-add but not an RII-add
        top = 10**4000 - 2
        diagrams = [ud.parse(code) for code in ["()", KINK, DELTA, tangle(1), "O1+ U1+ ; ()", TREFOIL]]
        diagrams.append(ud.Diagram(((ud.Pass(top, ud.OVER, 1), ud.Pass(top, ud.UNDER, 1)), ())))
        for d in diagrams:
            for kinds in [ALL_KINDS, RI_KINDS, {ud.RII_ADD, ud.RII_REMOVE}]:
                index = _MoveIndex(d, kinds)
                listed = [index.descriptor(i) for i in range(index.total)]
                assert listed == ud.enumerate_moves(d, kinds)

    def test_listing_budget_bounds_the_count(self, monkeypatch):
        # 4 * 8 * 7 = 224 RII-adds on the 8 arcs of a chain of four kinks
        d = ud.parse("O1+ U1+ O2+ U2+ O3+ U3+ O4+ U4+")
        monkeypatch.setattr(moves, "_LISTING_BUDGET", 224)
        assert len(ud.enumerate_moves(d, {ud.RII_ADD})) == 224
        monkeypatch.setattr(moves, "_LISTING_BUDGET", 223)
        with pytest.raises(ud.MoveError, match="^move descriptors exceed the listing budget of 223$"):
            ud.enumerate_moves(d, {ud.RII_ADD})

    def test_walk_start_size_exceeds_listing_budget(self):
        # a 1024-crossing knot has 4 * 2048 * 2047 RII-adds; none is built
        d = ud.parse(" ".join(f"O{x}+ U{x}+" for x in range(1, 1025)))
        with pytest.raises(ud.MoveError, match="^move descriptors exceed the listing budget of 1000000$"):
            ud.enumerate_moves(d, ALL_KINDS)
        assert len(ud.enumerate_moves(d, {ud.RI_ADD, ud.RI_REMOVE})) == 4 * 2048 + 1024


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
        # a site given as a list names the same arc as the tuple
        for sites in (((0, 1), (0, 1)), ([0, 1], (0, 1))):
            with pytest.raises(ud.MoveError, match="distinct"):
                ud.apply_move(ud.parse(DELTA), ud.MoveDescriptor(ud.RII_ADD, "parallel+", sites))

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

    @pytest.mark.parametrize("start", [TREFOIL, "O1+ U2+ ; U1+ O2+"], ids=["trefoil", "link"])
    def test_walk_grown_diagrams(self, start):
        # the pokes these walks put in sit among many over pass pairs that the
        # scan skips untested, so a check that skips one pair too many drops sites
        grow = {ud.RI_ADD, ud.RII_ADD, ud.RIII}
        for seed in range(4):
            for _, d in ud.random_walk(ud.parse(start), 30, grow, seed)[4::5]:
                assert_matches_oracle(d)

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

_INDEX = st.integers(-2, 12)
# malformed sites: the wrong length, or a float or str component or position
_BAD_SITE = st.one_of(st.tuples(_INDEX), st.tuples(_INDEX, _INDEX, _INDEX),
                      st.tuples(_INDEX.map(float), _INDEX), st.tuples(_INDEX, st.floats(-2, 12)),
                      st.tuples(_INDEX.map(str), _INDEX), st.tuples(_INDEX, _INDEX.map(str)))
_PAIR = st.tuples(_INDEX, _INDEX)
_SITE = st.one_of(_PAIR, _PAIR, _PAIR, _BAD_SITE)  # one in four malformed
_SITES = st.one_of(st.lists(_SITE, max_size=3).map(tuple), st.none())
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


def _int_pairs(sites) -> bool:
    """Whether fuzzed sites are well formed: (component, position) int pairs."""
    return sites is not None and all(
        len(site) == 2 and all(isinstance(v, int) for v in site) for site in sites)


def _outcome(d, mv):
    """apply_move's result as text, or its MoveError's message."""
    try:
        return ud.serialize(ud.apply_move(d, mv))
    except ud.MoveError as exc:
        return f"MoveError: {exc}"


class TestApplyFuzz:
    @given(st.data())
    @settings(max_examples=600, deadline=None)
    def test_applies_or_raises_move_error(self, data):
        # the fixtures keep their shared fresh passes from example to example
        d = data.draw(st.sampled_from(FUZZ_FIXTURES))
        legal = ud.enumerate_moves(d, {data.draw(st.sampled_from(sorted(ALL_KINDS)))})
        if legal:
            picks = st.sampled_from(legal)
            mv = data.draw(st.one_of(_JUNK, picks, picks.flatmap(_near)))
        else:
            mv = data.draw(_JUNK)
        try:
            out = ud.apply_move(d, mv)
        except ud.MoveError as exc:
            out, text = None, f"MoveError: {exc}"
        else:
            text = ud.serialize(out)
            assert ud.parse(text) == out
            assert_indexed(out)
        if not _int_pairs(mv.sites):
            assert out is None
        elif mv.kind in LOCAL_KINDS:
            assert (out is not None) == (mv in ud.enumerate_moves(d, {mv.kind}))
        # a copy that has built no fresh pass yet decides alike, with the same message
        assert _outcome(ud.Diagram(d.components), mv) == text


class TestMalformedDescriptors:
    """apply_move raises only MoveError, whatever a descriptor's sites hold."""

    @pytest.mark.parametrize("code,kind,sites", [
        (DELTA, ud.RI_ADD, ((0,),)),
        (DELTA, ud.RI_ADD, ((0, 1, 2),)),
        (DELTA, ud.RI_ADD, ((0.0, 1),)),
        (DELTA, ud.RI_ADD, (("0", 1),)),
        (DELTA, ud.RI_ADD, None),
        (DELTA, ud.RII_ADD, ((0, 0), (0, 1.0))),
        (DELTA, ud.RII_ADD, ((0, 0), (0, 10**5000))),  # a position too long to print
        ("()", ud.RI_ADD, ((0, 0.0),)),  # an empty component's one arc, as a float
        (KINK, ud.RI_REMOVE, ((0, 1.5),)),
        (KINK, ud.RI_REMOVE, ((0, "1"),)),
        (KINK, ud.RI_REMOVE, ((0,),)),
        ("O1+ O2- ; U1+ U2-", ud.RII_REMOVE, ((0, 0), (1, 0.0))),  # equal to a legal one
        ("O2- O3+ U3+ U1+ U2- O1+", ud.RII_REMOVE, ((0, 5), (0, 3.0))),  # round the end
    ], ids=["one-int", "three-ints", "float-component", "str-component", "no-sites",
            "float-position", "huge-position", "float-on-empty", "fraction", "str-position",
            "remove-one-int", "equal-float", "equal-float-round-the-end"])
    def test_raises_move_error(self, code, kind, sites):
        variant = {ud.RI_ADD: "OU+", ud.RII_ADD: "parallel+", ud.RI_REMOVE: "OU+",
                   ud.RII_REMOVE: "parallel+"}[kind]
        with pytest.raises(ud.MoveError):
            ud.apply_move(ud.parse(code), ud.MoveDescriptor(kind, variant, sites))

    @pytest.mark.parametrize("kind,sites,message", [
        (ud.RII_ADD, ((0, 0), (0, 10**5000)), "position ... out of range in component 0"),
        (ud.RII_ADD, ((0, 0), (10**5000, 0)), "no component ..."),
        (ud.RI_REMOVE, ((0, -10**5000),), "position ... out of range in component 0"),
        (ud.RI_REMOVE, ((-10**5000, 0),), "no component ..."),
        (ud.RII_ADD, ((0, 0), (0, Fraction(10**5000, 3))), "position ... out of range in component 0"),
        (ud.RI_REMOVE, ((0, Fraction(10**5000, 3)),), "position ... out of range in component 0"),
    ], ids=["huge-position", "huge-component", "remove-huge-position", "remove-huge-component",
            "fraction-position", "remove-fraction-position"])
    def test_huge_site_names_its_rule(self, kind, sites, message):
        # a site past str()'s digit limit is shown as "...", not as Python's limit error
        variant = "parallel+" if kind == ud.RII_ADD else "OU+"
        with pytest.raises(ud.MoveError) as raised:
            ud.apply_move(ud.parse(DELTA), ud.MoveDescriptor(kind, variant, sites))
        assert str(raised.value) == f"stale or invalid move descriptor: {message}"

    def test_bools_are_ints(self):
        d = ud.parse(DELTA)
        for kind, variant, sites in [(ud.RI_ADD, "UO-", ((False, True),)),
                                     (ud.RII_ADD, "antiparallel+", ((False, True), (0, 3)))]:
            as_ints = tuple((int(k), int(p)) for k, p in sites)
            assert (ud.apply_move(d, ud.MoveDescriptor(kind, variant, sites))
                    == ud.apply_move(d, ud.MoveDescriptor(kind, variant, as_ints)))

    # (variant, sites, message) of RII-adds to a one-kink knot, each also
    # breaking every rule after its own; the rules are checked in this order
    ADD_RULES = [
        ("OU+", ((0, 1), (0, 1)), "bad RII-add variant 'OU+'"),
        ("parallel+", ((0, 1),), "wrong number of sites for this add move"),
        ("parallel+", ((1, 0), (0, 2)), "no component 1"),
        ("parallel+", ((0, 2), (0, 2)), "position 2 out of range in component 0"),
        ("parallel+", ((0, 1), (0, 1)), "the sites must be distinct arcs"),
        ("parallel+", ((0, 1), (0, 0)), "too few fresh crossing ids below 10**4000"),
    ]

    @pytest.mark.parametrize("top", [1, 10**4000 - 1], ids=["room", "no-room"])
    def test_add_rules_keep_their_order(self, top):
        d = ud.Diagram(((ud.Pass(top, ud.OVER, 1), ud.Pass(top, ud.UNDER, 1)),))
        if top == 1:  # the parallel+ pairs are built and shared before the bad adds
            ud.apply_move(d, ud.MoveDescriptor(ud.RII_ADD, "parallel+", ((0, 0), (0, 1))))
        for variant, sites, message in self.ADD_RULES[:None if top > 1 else -1]:
            mv = ud.MoveDescriptor(ud.RII_ADD, variant, sites)
            with pytest.raises(ud.MoveError) as raised:
                ud.apply_move(d, mv)
            assert str(raised.value) == f"stale or invalid move descriptor: {message}"


class TestRandomWalk:
    def test_zero_steps(self):
        assert ud.random_walk(ud.parse("()"), 0, RI_KINDS, seed=5) == []

    def test_determinism(self):
        d = ud.parse(DELTA)
        t1 = ud.random_walk(d, 60, RI_KINDS, seed=123)
        t2 = ud.random_walk(d, 60, RI_KINDS, seed=123)
        assert t1 == t2

    def test_steps_keep_no_fresh_table(self):
        # a step's add builds its parent's fresh-pass table, which only sweeps reuse
        walk = ud.random_walk(ud.parse(TREFOIL), 60, ALL_KINDS, seed=4)
        assert sum(mv.kind in (ud.RI_ADD, ud.RII_ADD) for mv, _ in walk) > 30
        assert not any("_fresh" in vars(step) for _, step in walk)

    def test_seed_changes_trajectory(self):
        d = ud.parse(DELTA)
        assert ud.random_walk(d, 40, RI_KINDS, seed=1) != ud.random_walk(d, 40, RI_KINDS, seed=2)

    def test_stalls_recorded(self):
        walk = ud.random_walk(ud.parse("()"), 3, {ud.RI_REMOVE}, seed=0)
        assert walk == [(None, ud.parse("()"))] * 3

    def test_negative_steps_rejected(self):
        with pytest.raises(ud.MoveError, match=r"steps must be >= 0"):
            ud.random_walk(ud.parse(DELTA), -1, RI_KINDS, seed=0)

    @pytest.mark.parametrize("steps", [2.0, "3"])
    def test_non_int_steps_rejected(self, steps):
        with pytest.raises(ud.MoveError, match=r"steps must be an integer"):
            ud.random_walk(ud.parse(DELTA), steps, RI_KINDS, seed=0)

    @pytest.mark.parametrize("seed", [None, 1.5, "7", [1], {}],
                             ids=["None", "float", "str", "list", "dict"])
    def test_non_int_seed_rejected(self, seed):
        # None would draw from the system's entropy, so equal calls would differ
        with pytest.raises(ud.MoveError, match=r"^seed must be an integer, got "):
            ud.random_walk(ud.parse(DELTA), 5, RI_KINDS, seed)

    def test_bool_steps_count_as_int(self):
        assert len(ud.random_walk(ud.parse(DELTA), True, RI_KINDS, seed=0)) == 1

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

        def rescan(old, labels, new, edits, kinds, carried):
            out = _rescan(old, labels, new, edits, kinds, carried)
            if out is not None:  # else an edited component was indexed anew: the next step scans all
                assert out == _MoveIndex(new, kinds).local, (ud.serialize(old), edits)
            checked.append(edits)
            return out

        monkeypatch.setattr(moves, "_rescan", rescan)
        for i, code in enumerate(CARRY_STARTS):
            ud.random_walk(ud.parse(code), 30, kinds, seed=i)
        assert len(checked) >= 50

    def test_relabelled_component_rescans_all(self, monkeypatch):
        # 32 RI-adds on arc 1 leave the trefoil's labels at positions 1..4 a
        # float or two apart, so walks from it soon add where no label fits:
        # the component is indexed anew, its sites move, and the next step
        # must scan all of it; the carried list, read back as positions, must
        # equal the reparsed diagram's scan at every step
        start = ud.parse(TREFOIL)
        for _ in range(32):  # each result read, so its maps hold labels
            start = ud.apply_move(start, ud.MoveDescriptor(ud.RI_ADD, "OU+", ((0, 1),)))
            assert 0 in start._labels
        local, relabelled = frozenset(LOCAL_KINDS), []

        def rescan(old, labels, new, edits, kinds, carried):
            listed = ud.enumerate_moves(ud.parse(ud.serialize(old)), local)
            assert [moves._sited(mv, labels, False) for mv in carried] == listed
            out = _rescan(old, labels, new, edits, kinds, carried)
            if any(k not in new._labels for k, _, _, _ in edits):
                relabelled.append(edits)
            else:
                assert out == _MoveIndex(new, kinds).local, (ud.serialize(old), edits)
            return out

        monkeypatch.setattr(moves, "_rescan", rescan)
        for seed in range(4):
            walk = ud.random_walk(start, 30, ALL_KINDS, seed)
            assert walk == ud.random_walk(ud.parse(ud.serialize(start)), 30, ALL_KINDS, seed)
        assert len(relabelled) >= 3

    def test_survivors_drop_by_broken_pair(self):
        # the kink lands inside no pair of the slide at (0,11),(0,13),(0,9),
        # though the slide's MB crossing 1 sits next to the kink's site
        d = ud.parse("O1- U2+ O2+ U3- O3- U4- O4- U1- U5+ O5+ O6- U6-")
        mv = ud.MoveDescriptor(ud.RI_ADD, "OU+", ((0, 1),))
        new = ud.apply_move(d, mv)
        carried = _rescan(d, d._labels, new, _edits(d, mv), ALL_KINDS, _MoveIndex(d, ALL_KINDS).local)
        assert carried == _MoveIndex(new, ALL_KINDS).local
        # carried sites are order labels; read them back as positions
        slides = [moves._sited(m, new._labels, False).sites for m in carried if m.kind == ud.RIII]
        assert ((0, 11), (0, 13), (0, 9)) in slides


def _wrapping_slides():
    """Triple-slide codes with one pass pair from the last position round to
    0: the T, M or B pair in one component, or T and M pairs in two."""
    codes = []
    for row in sorted(_RIII_ROWS)[::4]:
        top, mid, low = riii_strands(row)
        one = top + mid + low
        codes += [ud.Diagram((tuple(one[r:] + one[:r]),)) for r in (1, 3, 5)]
        codes.append(ud.Diagram(((top[1], top[0]), tuple(mid[1:] + low + mid[:1]))))
    return [ud.serialize(d) for d in codes]


# (code, a local kind with a descriptor on a pair from the last position to 0)
WRAP_CASES = [
    ("U1+ O2+ U2+ O1+", ud.RI_REMOVE),
    ("O2+ O1- U1- ; U3+ U2+ O3+", ud.RI_REMOVE),
    ("O2- O3+ U3+ U1+ U2- O1+", ud.RII_REMOVE),
    ("O2- O1+ ; U2- O3+ U3+ U1+", ud.RII_REMOVE),
] + [(code, ud.RIII) for code in _wrapping_slides()]


def _swapped_or_cut(d, mv):
    """mv's result read off the module docstring: RIII swaps each of its pass
    pairs, and a removal deletes both passes of each crossing in them."""
    comps = [list(comp) for comp in d.components]
    gone = set()
    for k, p in mv.sites:
        q = (p + 1) % len(comps[k])
        comps[k][p], comps[k][q] = comps[k][q], comps[k][p]
        if mv.kind != ud.RIII:
            gone |= {comps[k][p].crossing, comps[k][q].crossing}
    return ud.Diagram(tuple(tuple(pas for pas in comp if pas.crossing not in gone)
                            for comp in comps))


class TestResultMaps:
    """apply_move does not validate its result: it derives the result's maps
    from the parent's.  They must equal what Diagram(components) builds."""

    def test_every_descriptor(self):
        # the walk-grown fixtures list about 10**5 RII-adds each; of those,
        # the ones with a site on arc (0, 0), in either order, are applied
        for code in CARRY_STARTS:
            d = ud.parse(code)
            listed = ud.enumerate_moves(d, ALL_KINDS)
            for mv in listed:
                if len(listed) < 10**4 or mv.kind != ud.RII_ADD or (0, 0) in mv.sites:
                    assert_indexed(ud.apply_move(d, mv))

    @pytest.mark.parametrize("kinds", [ALL_KINDS, frozenset(LOCAL_KINDS) | {ud.RI_ADD}],
                             ids=["all", "local,RI-add"])
    def test_every_walk_step(self, kinds):
        for i, code in enumerate(CARRY_STARTS):
            for mv, d in ud.random_walk(ud.parse(code), 30, kinds, seed=i):
                assert_indexed(d)

    @pytest.mark.parametrize("code,mv,after", [
        ("U1+ O2+ U2+ O1+", ud.MoveDescriptor(ud.RI_REMOVE, "OU+", ((0, 3),)), "O2+ U2+"),
        ("O2- O3+ U3+ U1+ U2- O1+",
         ud.MoveDescriptor(ud.RII_REMOVE, "parallel+", ((0, 5), (0, 3))), "O3+ U3+"),
        ("O2+ O1- U1- ; U3+ U2+ O3+",
         ud.MoveDescriptor(ud.RI_REMOVE, "OU+", ((1, 2),)), "O2+ O1- U1- ; U2+"),
    ])
    def test_removal_round_the_end(self, code, mv, after):
        # a pair from the last position round to 0 moves every other pass
        d = ud.parse(code)
        assert mv in ud.enumerate_moves(d, {mv.kind})
        out = ud.apply_move(d, mv)
        assert ud.serialize(out) == after
        assert_indexed(out)

    @pytest.mark.parametrize("code,kind", WRAP_CASES)
    def test_pairs_round_the_end(self, code, kind):
        # such a pair is rewritten as two one-pass slice edits, at the last
        # position and at 0; an add on the last arc inserts after its pass
        d = ud.parse(code)
        last = {(k, len(comp) - 1) for k, comp in enumerate(d.components)}
        wrapping = [mv for mv in ud.enumerate_moves(d, ALL_KINDS) if last & set(mv.sites)]
        assert kind in {mv.kind for mv in wrapping}
        for mv in wrapping:
            out = ud.apply_move(d, mv)
            assert_indexed(out)
            if mv.kind in LOCAL_KINDS:
                assert mv in brute_local_moves(d, mv.kind)
                assert out == _swapped_or_cut(d, mv), mv
            else:
                assert out == brute_add(d, mv), mv

    def test_unread_result_reads_and_copies(self):
        # an unknown attribute builds nothing; a deep copy made before the
        # first read carries the parent's maps and builds equal ones
        out = ud.apply_move(ud.parse(TREFOIL), ud.MoveDescriptor(ud.RI_ADD, "OU+", ((0, 0),)))
        assert not hasattr(out, "nope")
        assert "_over_at" not in vars(out)
        copied = copy.deepcopy(out)
        assert copied == out
        assert (copied._over_at, copied._under_at) == (out._over_at, out._under_at)
        assert_indexed(copied)

    def test_add_layouts_pair_each_fresh_id(self):
        # an add result is valid by construction: each fresh id gets one over
        # and one under pass, of one sign
        for kind, layouts in moves._ADD_LAYOUTS.items():
            for variant, arcs in layouts.items():
                passes = [pas for pair in arcs for pas in pair]
                assert len(passes) == 2 * moves._FRESH_IDS[kind]
                for offset in range(moves._FRESH_IDS[kind]):
                    mine = sorted((role, sign) for o, role, sign in passes if o == offset)
                    assert [role for role, _ in mine] == [ud.OVER, ud.UNDER], (kind, variant)
                    assert mine[0][1] == mine[1][1], (kind, variant)

    def test_only_constructed_diagrams_are_validated(self, monkeypatch):
        validated, check = [], ud.Diagram.__post_init__

        def counted(self):
            validated.append(self)
            check(self)

        monkeypatch.setattr(ud.Diagram, "__post_init__", counted)
        d = ud.parse(TREFOIL)
        assert validated == [d]
        walk = ud.random_walk(d, 30, ALL_KINDS, seed=3)
        for mv in ud.enumerate_moves(d, ALL_KINDS):
            ud.apply_move(d, mv)
        assert validated == [d]
        last = walk[-1][1]
        assert ud.Diagram(last.components) == last
        assert len(validated) == 2


class TestLazyMaps:
    """A move result builds its maps when first read, random_walk hands each
    step's maps on to the next step, and a step read after the walk indexes
    its own components; all equal the validated maps."""

    @pytest.mark.parametrize("components,crossings", [(1, 256), (1, 1024), (3, 96)])
    @pytest.mark.parametrize("kinds", [ALL_KINDS, frozenset(LOCAL_KINDS) | {ud.RI_ADD}],
                             ids=["all", "local,RI-add"])
    def test_every_walk_step(self, monkeypatch, components, crossings, kinds):
        # crossings at random positions; the walks' own kinks and pokes give the removals
        d = ud.parse(random_link_code(random.Random(crossings), components, crossings, 2))
        assert d.num_crossings >= crossings
        builds = record_builds(monkeypatch)  # each step is checked as it builds its maps
        walk = ud.random_walk(d, 40, kinds, seed=crossings)
        monkeypatch.undo()
        assert all(id(step) in builds for mv, step in walk if mv is not None)
        # every step but the last gave its maps away; the last keeps those it built
        assert not any(vars(step).keys() & {"_over_at", "_under_at", "_labels"} for _, step in walk[:-1])
        assert vars(walk[-1][1]).keys() >= {"_over_at", "_under_at", "_labels"}
        for mv, step in walk:
            assert_indexed(step)

    def test_every_sweep_result(self):
        d = ud.parse(random_link_code(random.Random(2), 2, 8, 2))
        listed = ud.enumerate_moves(d, ALL_KINDS)
        assert len(listed) > 1000
        for mv in listed:
            out = ud.apply_move(d, mv)
            assert "_over_at" not in vars(out) and "_under_at" not in vars(out)
            change = {ud.RI_ADD: 1, ud.RI_REMOVE: -1, ud.RII_ADD: 2, ud.RII_REMOVE: -2, ud.RIII: 0}
            assert out.num_crossings == d.num_crossings + change[mv.kind]
            assert_indexed(out)

    def test_long_unread_chain(self):
        # each add reads only its parent's components and carried max id, so
        # no map is built until the end, and no result holds its parent; the
        # adds spread over 64 components to keep each splice short
        current, refs = ud.parse(" ; ".join(["()"] * 64)), []
        for i in range(10**4):
            k, j = i % 64, (i + 1) % 64
            if i % 3 == 2:
                mv = ud.MoveDescriptor(ud.RII_ADD, _RII_VARIANTS[i % 4], ((k, 0), (j, 0)))
            else:
                mv = ud.MoveDescriptor(ud.RI_ADD, _RI_VARIANTS[i % 4], ((k, 0),))
            if i:
                assert "_over_at" not in vars(current)
                assert vars(current)["_max_id"] == current.num_crossings
            if i % 1000 == 1:
                refs.append(weakref.ref(current))
            current = ud.apply_move(current, mv)
        assert all(ref() is None for ref in refs)
        assert current.max_crossing_id() == current.num_crossings > 10**4
        assert_indexed(current)

    def test_threads_read_one_result(self):
        d = ud.parse(random_link_code(random.Random(3), 1, 1024, 2))
        mv = ud.enumerate_moves(d, {ud.RI_ADD})[-1]
        full = ud.Diagram(ud.apply_move(d, mv).components)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often inside the build
        try:
            for _ in range(5):
                out, start, seen = ud.apply_move(d, mv), threading.Barrier(4), []

                def read():
                    start.wait(timeout=60)
                    seen.append((out._under_at, out._over_at))

                threads = [threading.Thread(target=read) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert len(seen) == 4
                assert all(a is b for maps in seen for a, b in zip(maps, seen[0]))
                assert seen[0] == (full._under_at, full._over_at)
        finally:
            sys.setswitchinterval(interval)


def _planted_knot(crossings: int) -> ud.Diagram:
    """A knot of at least the given crossings: the trefoil summed with seeded
    knots that hold planted kinks, pokes and triple slides."""
    d, seed = ud.parse(TREFOIL), 0
    while d.num_crossings < crossings:
        block, seed = ud.parse(planted_code(random.Random(seed), 1)), seed + 1
        if block.num_crossings:
            d = ud.connected_sum(d, block, ud.SemiArcId(0, seed % d.arc_count(0)), ud.SemiArcId(0, 0))
    return d


def _short_link() -> ud.Diagram:
    """A link of three components of 84, 30 and 32 passes, with kinks and
    pokes grown by adds, reparsed so that its maps hold positions."""
    grown = ud.random_walk(ud.parse(planted_code(random.Random(5), 3)), 30, {ud.RI_ADD, ud.RII_ADD}, seed=5)
    return ud.parse(ud.serialize(grown[-1][1]))


class TestMapWrites:
    """A walk step's map build takes the last step's maps and label lists and
    edits them in place: it writes the entries of the passes its move puts in
    or swaps, deletes those of the passes it takes out and leaves every other
    entry as it was, however long or short the component.  Only a component
    whose order labels ran out is indexed anew, and the walk's start is only
    read."""

    # (passes put in, passes taken out) per kind: RIII swaps three pairs
    EDITED = {ud.RI_ADD: (2, 0), ud.RII_ADD: (4, 0), ud.RI_REMOVE: (0, 2), ud.RII_REMOVE: (0, 4),
              ud.RIII: (6, 0)}

    @pytest.mark.parametrize("crossings", [30, 100, 1000, pytest.param(None, id="link")])
    def test_writes_do_not_grow_with_the_component(self, monkeypatch, crossings):
        start = _planted_knot(crossings) if crossings else _short_link()
        kinds, checked = set(), 0
        builds = record_builds(monkeypatch)
        # a walk over every kind mostly adds pokes
        for kind_set in (ALL_KINDS, {ud.RI_ADD}, frozenset(LOCAL_KINDS)):
            old = start
            for mv, step in ud.random_walk(start, 40, kind_set, seed=crossings or 3):
                if mv is None:  # a stall: no move, no build
                    continue
                kept, written, deleted, labelled = builds[id(step)]
                # the first step copies the start's maps and labels; every later one edits its parent's
                assert set(kept) == {old is not start}, mv
                edited = {k for k, comp in enumerate(step.components) if comp is not old.components[k]}
                if edited <= labelled:  # else a component's labels ran out
                    assert (written, deleted) == self.EDITED[mv.kind], mv
                    kinds.add(mv.kind)
                    checked += 1
                old = step
        assert kinds == ALL_KINDS and checked >= 115
        for _, step in ud.random_walk(start, 20, ALL_KINDS, seed=1):
            assert_indexed(step)  # read after the walk, each step indexes its own components

    @pytest.mark.parametrize("grown", ["knot", "link"])
    def test_walk_leaves_its_start_as_it_was(self, grown):
        # a labelled start: the last step of a walk keeps the maps and labels it
        # built; a link's steps edit one component while the others keep theirs
        if grown == "knot":
            start = ud.random_walk(_planted_knot(150), 30, ALL_KINDS, seed=3)[-1][1]
        else:
            start = ud.random_walk(ud.parse(random_link_code(random.Random(300), 2, 300, 2)),
                                   30, ALL_KINDS, seed=1)[-1][1]
        child = ud.apply_move(start, ud.MoveDescriptor(ud.RI_ADD, "OU+", ((0, 0),)))
        assert_indexed(child)
        kept = []
        for d in start, child:
            held = {key: vars(d)[key] for key in ("_over_at", "_under_at", "_labels")}
            rows = dict(held["_labels"])
            assert len(rows) == d.num_components and all(len(comp) >= 128 for comp in d.components)
            kept.append((d, held, rows, ({key: dict(value) for key, value in held.items()},
                                         {k: list(row) for k, row in rows.items()})))
        for seed, kinds in enumerate((ALL_KINDS, frozenset(LOCAL_KINDS) | {ud.RI_ADD}, {ud.RIII},
                                      {ud.RI_ADD}, {ud.RI_ADD})):
            for d in start, child:
                walk = ud.random_walk(d, 30, kinds, seed)
                assert all(step is not d for mv, step in walk if mv is not None)
                if kinds == {ud.RI_ADD}:  # the walk edits every component
                    assert all(walk[-1][1].components[k] is not comp for k, comp in enumerate(d.components))
                for d, held, rows, contents in kept:
                    assert all(vars(d)[key] is value for key, value in held.items())
                    assert all(vars(d)["_labels"][k] is row for k, row in rows.items())
                    assert ({key: dict(value) for key, value in held.items()},
                            {k: list(row) for k, row in rows.items()}) == contents
                    assert_indexed(d)

    @pytest.mark.parametrize("crossings", [300, 1000])
    def test_steps_index_no_long_component_anew(self, monkeypatch, crossings):
        # only the first step may index a component anew, when the walk's start
        # has no maps to copy; after it, only a component whose labels ran out
        # is indexed anew, as apply_move's build indexes it
        big = ud.parse(random_link_code(random.Random(crossings), 2, crossings, 2))
        unread = ud.apply_move(big, ud.MoveDescriptor(ud.RI_ADD, "OU+", ((0, 0),)))
        assert "_over_at" not in vars(unread)
        indexed, index = [], diagram._map_roles

        def recorded(maps, components, k):
            indexed.append((components, k))
            index(maps, components, k)

        for start, kinds in [(unread, {ud.RI_ADD}), (big, ALL_KINDS),
                             (big, frozenset(LOCAL_KINDS) | {ud.RI_ADD})]:
            monkeypatch.setattr(diagram, "_map_roles", recorded)
            walk = ud.random_walk(start, 60, kinds, seed=crossings)
            monkeypatch.undo()
            anew = {(i, k) for i, (_, step) in enumerate(walk) for components, k in indexed
                    if components is step.components}
            # the same moves applied one by one, each result read before the next
            ran_out, current = set(), start
            for i, (mv, step) in enumerate(walk):
                current = ud.apply_move(current, mv)
                assert current == step
                ran_out |= {(i, k) for k in range(current.num_components) if k not in current._labels}
            first = {(0, k) for k in range(2)} if start is unread else set()
            assert anew - first <= ran_out and first <= anew, kinds
            indexed.clear()

    def test_labelled_diagram_reads_as_reparsed(self):
        # a walked diagram whose maps hold labels lists, walks and certifies as
        # its reparsed copy, whose maps hold positions
        last = ud.random_walk(_planted_knot(150), 30, ALL_KINDS, seed=3)[-1][1]
        fresh = ud.parse(ud.serialize(last))
        assert last._labels and not fresh._labels
        kinds = frozenset(LOCAL_KINDS) | {ud.RI_ADD}  # RII-adds would list about 360,000
        assert ud.enumerate_moves(last, kinds) == ud.enumerate_moves(fresh, kinds)
        assert ud.random_walk(last, 30, ALL_KINDS, 7) == ud.random_walk(fresh, 30, ALL_KINDS, 7)
        assert ud.phi_shift(last, F) == ud.phi_shift(fresh, F)
        assert str(ud.rii_report(last, fresh, F)) == str(ud.rii_report(fresh, fresh, F))

    def test_labels_run_out(self):
        # each RI-add on arc 1 puts its pair a third of the way into the gap the
        # last one left after label 1, so about every 33rd add finds no float to
        # take and its component is indexed anew
        current, relabelled = _planted_knot(100), 0
        for _ in range(80):
            current = ud.apply_move(current, ud.MoveDescriptor(ud.RI_ADD, "OU+", ((0, 1),)))
            assert_indexed(current)
            relabelled += 0 not in current._labels
        assert relabelled >= 2


class TestSharedFreshPasses:
    """An add's fresh passes depend only on its parent's largest id and its
    layout, so each parent builds them once per layout and its add results
    share them; identity must still decide what equality would."""

    def test_siblings_share_fresh_passes(self):
        d = ud.parse(random_link_code(random.Random(4), 2, 8, 2))
        top, seen = d.max_crossing_id(), {}
        for mv in ud.enumerate_moves(d, {ud.RI_ADD, ud.RII_ADD}):
            out = ud.apply_move(d, mv)
            fresh = sorted((pas for comp in out.components for pas in comp if pas.crossing > top),
                           key=lambda pas: (pas.crossing, pas.role))
            first = seen.setdefault((mv.kind, mv.variant), fresh)
            assert len(fresh) == 2 * moves._FRESH_IDS[mv.kind]
            assert all(a is b for a, b in zip(fresh, first)), mv
        assert len(seen) == 8

    @pytest.mark.parametrize("kind,variant", [(ud.RI_ADD, "OU-"), (ud.RII_ADD, "antiparallel+")])
    def test_walks_from_siblings(self, kind, variant):
        # two results holding the same fresh pass objects walk as their reparsed copies do
        d = ud.parse(TREFOIL)
        sites = [((0, 0), (0, 3)), ((0, 4), (0, 1))] if kind == ud.RII_ADD else [((0, 0),), ((0, 4),)]
        siblings = [ud.apply_move(d, ud.MoveDescriptor(kind, variant, s)) for s in sites]
        for seed, sibling in enumerate(siblings):
            walk = ud.random_walk(sibling, 40, ALL_KINDS, seed)
            assert walk == ud.random_walk(ud.parse(ud.serialize(sibling)), 40, ALL_KINDS, seed)
            for _, step in walk:
                assert_indexed(step)

    def test_sweep_builds_each_layout_once(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return ud.Pass(*args)

        monkeypatch.setattr(moves, "_pass", counted)
        # 8 passes for the four RI-add layouts and 16 for the four RII-add ones;
        # an id of 10**4000 - 2 leaves room for the RI-adds alone
        top = 10**4000 - 2
        for d, count in [(ud.parse(random_link_code(random.Random(5), 2, 8, 2)), 24),
                         (ud.Diagram(((ud.Pass(top, ud.OVER, 1), ud.Pass(top, ud.UNDER, 1)),)), 8)]:
            for _ in range(2):  # a second sweep of the same parent builds none
                for mv in ud.enumerate_moves(d, ALL_KINDS):
                    ud.apply_move(d, mv)
                assert len(built) == count
            built.clear()

    def test_threads_add_to_one_parent(self):
        mv = ud.MoveDescriptor(ud.RII_ADD, "parallel-", ((0, 0), (0, 5)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often inside the first adds
        try:
            for _ in range(5):
                d, start, seen = ud.parse(TREFOIL), threading.Barrier(4), []

                def add():
                    start.wait(timeout=60)
                    seen.append(ud.apply_move(d, mv))

                threads = [threading.Thread(target=add) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert len(seen) == 4
                # every result took the one published pair per arc
                pairs = vars(d)["_fresh"][mv[:2]]
                for out in seen:
                    assert out.components[0][1:3] == pairs[0] and out.components[0][1] is pairs[0][0]
                    assert_indexed(out)
        finally:
            sys.setswitchinterval(interval)


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

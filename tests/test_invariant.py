"""Crossing weights, weight-sum multisets and the RII-move certificates."""

import itertools
import random

import pytest

import updown as ud
from helpers import (
    DELTA,
    F6,
    KINK,
    KNOT_CODES,
    TREFOIL,
    UNKNOT,
    VIRTUAL_TWO,
    brute_colorings,
    brute_phi,
    brute_weight_sum,
    random_link_code,
    tangle,
)

F = ud.builtin_table("example-f")
G = ud.builtin_table("example-g")

# a valid but non-shiftable cocycle over Z_2: entries (1,0,+) and (1,0,-)
NONSHIFT = ud.CocycleTable.from_function(
    2, 2, lambda a, b, s: 1 if (a, b) == (1, 0) else 0)


# links for the permissive multiset: self-crossings, mixed signs and three
# components; tangle(1) colors mod 2 only, "O1+ O2+ U2+ ; U1+" mod 1 only
LINK_CODES = [
    tangle(1),
    "O1+ O2+ U2+ ; U1+",
    "O1+ U2- ; U1+ O2-",
    "O1+ O2+ U2+ U3- ; U1+ O3-",
    "O1+ U2- ; O2- U3+ ; O3+ U1+",
]


# the example tables, a non-shiftable cocycle and two shiftable ones at larger n
KERNEL_TABLES = {"f": F, "g": G, "nonshift": NONSHIFT,
                 "6-3": ud.enumerate_shiftable(6, 3)[-1], "8-2": ud.enumerate_shiftable(8, 2)[-1]}


RI_RIII = frozenset({ud.RI_ADD, ud.RI_REMOVE, ud.RIII})


def every_pair_link(rng: random.Random, n: int) -> ud.Diagram:
    """A seeded 4-component random_link_code link plus, for every two
    components, a crossing each way at random positions; every component
    shift stays a multiple of n."""
    d = ud.parse(random_link_code(rng, 4, rng.randint(8, 16), n))
    comps, x = [list(comp) for comp in d.components], d.max_crossing_id()
    for pair in itertools.combinations(range(4), 2):
        for over, under in (pair, pair[::-1]):
            x, sign = x + 1, rng.choice((1, -1))
            for k, role in ((over, ud.OVER), (under, ud.UNDER)):
                comps[k].insert(rng.randint(0, len(comps[k])), ud.Pass(x, role, sign))
    return ud.Diagram(comps)


def as_arc_map(c):
    return {ud.SemiArcId(k, p): v for k, comp in enumerate(c.colors) for p, v in enumerate(comp)}


def crossing_classes(d, base):
    """Distinct (under comp, under color, over comp, over color, sign) under
    a coloring, read at the arcs brute_weight_sum reads, found by scanning
    the pass sequences."""
    at = {(pas.crossing, pas.role): (k, p)
          for k, comp in enumerate(d.components) for p, pas in enumerate(comp)}
    classes = set()
    for x in d.crossing_ids():
        (ko, po), (ku, pu), s = at[x, ud.OVER], at[x, ud.UNDER], d.crossing_sign(x)
        if s > 0:
            pu -= 1
        else:
            po -= 1
        classes.add((ku, base.colors[ku][pu], ko, base.colors[ko][po], s))
    return classes


class CountingEntries(tuple):
    """A table's entries that log each read into `reads`: one per index, a
    slice's length per slice."""

    def __getitem__(self, key):
        self.reads.append(len(range(*key.indices(len(self)))) if isinstance(key, slice) else 1)
        return super().__getitem__(key)


def count_reads(monkeypatch) -> list:
    """Counts of the table entries _weight_sums reads: it is handed a copy of
    its table whose entries count their reads, so the cocycle check's reads
    are left out."""
    reads, real = [], ud.invariant._weight_sums

    def counted(d, colorings, table):
        copy, entries = ud.CocycleTable(table.n, table.m, table.entries), CountingEntries(table.entries)
        entries.reads, vars(copy)["entries"] = reads, entries
        return real(d, colorings, copy)

    monkeypatch.setattr(ud.invariant, "_weight_sums", counted)
    return reads


def base_coloring(code, n=4):
    return ud.solve_colorings(ud.parse(code), ud.ColoringSpec(n))[0]


class TestCrossingWeight:
    def test_delta_negative_crossing(self):
        d = ud.parse(DELTA)
        assert ud.crossing_weight(d, base_coloring(DELTA), 1, F) == 1

    def test_delta_positive_crossing(self):
        d = ud.parse(DELTA)
        assert ud.crossing_weight(d, base_coloring(DELTA), 2, F) == 0

    @pytest.mark.parametrize("code", ["O1+ U1+", "U1+ O1+", "O1- U1-", "U1- O1-"])
    def test_kinks_weigh_nothing(self, code):
        # both weight arguments coincide on a kink, and diagonal entries are 0
        d = ud.parse(code)
        for c in ud.solve_colorings(d, ud.ColoringSpec(4)):
            assert ud.crossing_weight(d, c, 1, F) == 0

    def test_modulus_mismatch(self):
        d = ud.parse(KINK)
        c = base_coloring(KINK, n=3)
        with pytest.raises(ud.InvariantError, match="modulus"):
            ud.crossing_weight(d, c, 1, F)

    def test_unknown_crossing(self):
        d = ud.parse(KINK)
        with pytest.raises(ud.UpDownError):
            ud.crossing_weight(d, base_coloring(KINK), 9, F)


# colorings of KINK's two semi-arcs that miss a semi-arc, miss the component
# or add a component
NOT_COVERING = [((0,),), (), ((0, 0), (0,))]


class TestColoringCoverage:
    @pytest.mark.parametrize("colors", NOT_COVERING)
    def test_crossing_weight(self, colors):
        c = ud.Coloring(ud.ColoringSpec(4), colors)
        with pytest.raises(ud.ColoringError, match="does not cover"):
            ud.crossing_weight(ud.parse(KINK), c, 1, F)

    @pytest.mark.parametrize("colors", NOT_COVERING)
    def test_weight_sum(self, colors):
        c = ud.Coloring(ud.ColoringSpec(4), colors)
        with pytest.raises(ud.ColoringError, match="does not cover"):
            ud.weight_sum(ud.parse(KINK), c, F)


class TestWeightSum:
    def test_delta(self):
        d = ud.parse(DELTA)
        assert ud.weight_sum(d, base_coloring(DELTA), F) == 1

    def test_unknot(self):
        d = ud.parse(UNKNOT)
        assert ud.weight_sum(d, base_coloring(UNKNOT), F) == 0

    def test_delta_sharp_delta(self):
        d = ud.connected_sum(ud.parse(DELTA), ud.parse(DELTA),
                             ud.SemiArcId(0, 0), ud.SemiArcId(0, 0))
        c = ud.solve_colorings(d, ud.ColoringSpec(4))[0]
        assert ud.weight_sum(d, c, F) == 2


class TestPhiMultiset:
    def test_delta(self):
        assert ud.phi_multiset(ud.parse(DELTA), F).elements == (1, 1, 1, 1)

    def test_unknot(self):
        assert ud.phi_multiset(ud.parse(UNKNOT), F).elements == (0, 0, 0, 0)

    def test_kink(self):
        assert ud.phi_multiset(ud.parse(KINK), F).elements == (0, 0, 0, 0)

    def test_virtual_two_crossing(self):
        assert ud.phi_multiset(ud.parse(VIRTUAL_TWO), F).elements == (2, 2, 2, 2)

    @pytest.mark.parametrize("code", KNOT_CODES + LINK_CODES)
    @pytest.mark.parametrize("table", [F, G, NONSHIFT], ids=["f", "g", "nonshift"])
    def test_matches_brute_force(self, code, table):
        d = ud.parse(code)
        assert ud.phi_multiset(d, table, allow_links=True).elements == brute_phi(d, table)

    def test_rejects_links_without_flag(self):
        with pytest.raises(ud.InvariantError, match="single-component"):
            ud.phi_multiset(ud.parse(tangle(1)), F)

    def test_permissive_link_mode(self):
        ms = ud.phi_multiset(ud.parse(tangle(2)), F, allow_links=True)
        assert len(ms.elements) == 16

    def test_rejects_non_cocycles(self):
        bad = ud.CocycleTable.from_function(4, 4, lambda a, b, s: (a + b) % 4)
        with pytest.raises(ud.InvariantError, match="not an up-down cocycle"):
            ud.phi_multiset(ud.parse(DELTA), bad)

    def test_multiset_formatting(self):
        assert str(ud.phi_multiset(ud.parse(DELTA), F)) == "{1,1,1,1}"

    # seeded 2- and 3-component links of 20-60 crossings, knots of 100+, a
    # 4-component link with crossings both ways between every two components
    # and a labelled walk result, where crossings share classes and links mix
    # base colors; every link's colorings are also summed one at a time
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", KERNEL_TABLES)
    def test_matches_per_coloring_sums(self, seed, name):
        table = KERNEL_TABLES[name]
        rng = random.Random(f"kernel:{name}:{seed}")
        diagrams = [ud.parse(random_link_code(rng, components, rng.randint(low, high), table.n))
                    for components, low, high in ((2, 20, 60), (3, 20, 60), (1, 100, 160))]
        diagrams.append(every_pair_link(rng, table.n))
        walked = ud.random_walk(diagrams[1], 30, RI_RIII, seed)[-1][1]
        assert walked._labels and walked.num_crossings != diagrams[1].num_crossings
        for d in diagrams + [walked]:
            found = ud.solve_colorings(d, ud.ColoringSpec(table.n))
            assert len(found) == table.n ** d.num_components
            sums = [brute_weight_sum(d, as_arc_map(c), table) for c in found]
            assert ud.phi_multiset(d, table, allow_links=True).elements == tuple(sorted(sums))
            if d.num_components > 1:
                assert [ud.weight_sum(d, c, table) for c in found] == sums

    def test_knot_table_reads_bounded(self, monkeypatch):
        # a knot reads n entries per crossing class, never a full n x n grid
        d = ud.parse(random_link_code(random.Random(7), 1, 200, 64))
        table, reads = ud.CocycleTable.zero(64, 2), count_reads(monkeypatch)
        assert ud.phi_multiset(d, table).elements == (0,) * 64
        first = ud.solve_colorings(d, ud.ColoringSpec(64))[0]
        assert 0 < sum(reads) <= 64 * len(crossing_classes(d, first)) <= 64 * d.num_crossings

    def test_link_table_reads_below_per_coloring(self, monkeypatch):
        d = ud.parse(random_link_code(random.Random(8), 3, 40, 8))
        table = ud.enumerate_shiftable(8, 2)[-1]
        reads = count_reads(monkeypatch)
        assert len(ud.phi_multiset(d, table, allow_links=True).elements) == 512
        assert 0 < sum(reads) < 512 * d.num_crossings


class TestPhiShift:
    def test_trivial_knot_pair_values(self):
        assert ud.phi_shift(ud.parse(DELTA), F) == 1
        assert ud.phi_shift(ud.parse(UNKNOT), F) == 0

    def test_classical_trefoil_vanishes(self):
        assert ud.phi_shift(ud.parse(TREFOIL), F) == 0

    def test_virtual_two_crossing(self):
        assert ud.phi_shift(ud.parse(VIRTUAL_TWO), F) == 2

    def test_needs_shiftable(self):
        with pytest.raises(ud.InvariantError, match="shiftable"):
            ud.phi_shift(ud.parse(DELTA), NONSHIFT)

    def test_rejects_links(self):
        with pytest.raises(ud.InvariantError):
            ud.phi_shift(ud.parse(tangle(1)), F)

    @pytest.mark.parametrize("table", [
        ud.CocycleTable.from_function(4, 4, lambda a, b, s: (a + b) % 4),
        ud.CocycleTable.from_function(3, 3, lambda a, b, s: int((a, b) == (0, 1)))],
        ids=["nonzero-diagonal", "zero-diagonal"])
    def test_non_cocycle_reported_before_non_shiftable(self, table):
        assert not ud.is_shiftable(table) and not ud.check_cocycle(table)
        with pytest.raises(ud.InvariantError, match="not an up-down cocycle"):
            ud.phi_shift(ud.parse(DELTA), table)

    def test_shiftable_check_runs_once(self, monkeypatch):
        calls = []
        real = ud.cocycle.is_shiftable
        for module in (ud.cocycle, ud.invariant):  # wherever the name is bound
            monkeypatch.setattr(module, "is_shiftable", lambda t: calls.append(t) or real(t),
                                raising=False)
        assert ud.phi_shift(ud.parse(DELTA), F) == 1
        assert calls == [F]

    @pytest.mark.parametrize("code", KNOT_CODES)
    def test_delta_prepend_adds_one(self, code):
        d = ud.parse(code)
        summed = ud.connected_sum(ud.parse(DELTA), d,
                                  ud.SemiArcId(0, 1), ud.SemiArcId(0, 0))
        assert ud.phi_shift(summed, F) == (1 + ud.phi_shift(d, F)) % 4


# every shiftable (4,4) table and one at each of (5,5), (6,3) and (8,2)
SHIFTABLE = ud.enumerate_shiftable(4, 4) + [
    ud.enumerate_shiftable(n, m)[-1] for n, m in [(5, 5), (6, 3), (8, 2)]]


class TestPhiShiftOracle:
    @pytest.mark.parametrize("code", KNOT_CODES)
    def test_every_coloring_gives_phi_shift(self, code):
        d = ud.parse(code)
        colorings = {n: brute_colorings(d, ud.ColoringSpec(n)) for n in (4, 5, 6, 8)}
        for table in SHIFTABLE:
            sums = {brute_weight_sum(d, colors, table) for colors in colorings[table.n]}
            assert sums == {ud.phi_shift(d, table)}


class TestMaxordBound:
    def test_stand_in_pair(self):
        b = ud.rii_bound_maxord(ud.parse(tangle(5)), ud.parse(F6))
        assert b.bound == 2
        assert b.certificate == ud.CERT_MAXORD
        assert str(b) == "bound=2 certificate=maxord-difference detail=|10-6|/2"

    @pytest.mark.parametrize("i", range(0, 7))
    @pytest.mark.parametrize("j", range(0, 7))
    def test_tangle_family(self, i, j):
        b = ud.rii_bound_maxord(ud.parse(tangle(i)), ud.parse(tangle(j)))
        assert b.bound == abs(i - j)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_odd_difference_rounds_up(self, k):
        # k crossings with one strand over at all of them: maxord k, against 0
        over = " ".join(f"O{j}+" for j in range(1, k + 1))
        under = " ".join(f"U{j}+" for j in range(1, k + 1))
        b = ud.rii_bound_maxord(ud.parse(f"{over} ; {under}"), ud.parse(tangle(0)))
        assert str(b) == f"bound={(k + 1) // 2} certificate=maxord-difference detail=|{k}-0|/2"

    def test_identical(self):
        d = ud.parse(tangle(3))
        assert ud.rii_bound_maxord(d, d).bound == 0

    def test_needs_two_components(self):
        with pytest.raises(ud.InvariantError):
            ud.rii_bound_maxord(ud.parse(DELTA), ud.parse(DELTA))


class TestColcountWitness:
    def test_tangle_one_vs_two(self):
        w = ud.rii_necessity_colcount(ud.parse(tangle(1)), ud.parse(tangle(2)))
        assert w == 4
        # sanity: the counts really differ there
        assert ud.count_colorings(ud.parse(tangle(1)), ud.ColoringSpec(4)) == 0
        assert ud.count_colorings(ud.parse(tangle(2)), ud.ColoringSpec(4)) == 16

    def test_identical(self):
        d = ud.parse(tangle(2))
        assert ud.rii_necessity_colcount(d, d) is None

    def test_zero_gcd_side(self):
        w = ud.rii_necessity_colcount(ud.parse(tangle(0)), ud.parse(tangle(1)))
        assert w == 3

    @pytest.mark.parametrize("i,j", [(0, 1), (1, 2), (2, 3), (1, 3), (0, 3), (2, 5)])
    def test_witness_matches_direct_counting(self, i, j):
        d1, d2 = ud.parse(tangle(i)), ud.parse(tangle(j))
        w = ud.rii_necessity_colcount(d1, d2)
        direct = next(
            (n for n in range(1, 11)
             if ud.count_colorings(d1, ud.ColoringSpec(n))
             != ud.count_colorings(d2, ud.ColoringSpec(n))), None)
        assert w == direct

    def test_component_mismatch(self):
        with pytest.raises(ud.InvariantError):
            ud.rii_necessity_colcount(ud.parse(DELTA), ud.parse(tangle(1)))


class TestPhiNecessity:
    def test_delta_vs_unknot(self):
        assert ud.rii_necessity_phi(ud.parse(DELTA), ud.parse(UNKNOT), F)

    def test_identical(self):
        d = ud.parse(TREFOIL)
        assert not ud.rii_necessity_phi(d, d, F)

    @pytest.mark.parametrize("code", KNOT_CODES)
    def test_delta_summand_is_detected(self, code):
        d = ud.parse(code)
        summed = ud.connected_sum(ud.parse(DELTA), d,
                                  ud.SemiArcId(0, 2), ud.SemiArcId(0, 0))
        assert ud.rii_necessity_phi(d, summed, F)

    def test_table_checked_once(self, monkeypatch):
        calls = []
        real = ud.invariant.cocycle_violation
        monkeypatch.setattr(ud.invariant, "cocycle_violation",
                            lambda t: calls.append(t) or real(t))
        assert ud.rii_necessity_phi(ud.parse(DELTA), ud.parse(UNKNOT), F)
        assert calls == [F]

    def test_error_order(self):
        # d1's component count, then the table, then d2's component count
        bad = ud.CocycleTable.from_function(1, 2, lambda a, b, s: int(s > 0))
        knot, link = ud.parse(DELTA), ud.parse(tangle(1))
        for d1, d2, table, message in [
            (link, link, bad, "single-component"),
            (link, knot, F, "single-component"),
            (knot, link, bad, "not an up-down cocycle"),
            (knot, link, F, "single-component"),
        ]:
            with pytest.raises(ud.InvariantError, match=message):
                ud.rii_necessity_phi(d1, d2, table)


class TestNonselfBound:
    @pytest.mark.parametrize("i,j", [(0, 1), (2, 5), (4, 4)])
    def test_tangle_family(self, i, j):
        b = ud.rii_bound_nonself(ud.parse(tangle(i)), ud.parse(tangle(j)))
        assert b.bound == abs(i - j)
        assert b.certificate == ud.CERT_NONSELF

    def test_weaker_than_maxord_on_stand_in(self):
        d1, d2 = ud.parse(tangle(5)), ud.parse(F6)
        assert ud.rii_bound_nonself(d1, d2).bound == 1
        assert ud.rii_bound_maxord(d1, d2).bound == 2

    def test_identical(self):
        d = ud.parse(tangle(2))
        assert ud.rii_bound_nonself(d, d).bound == 0


class TestReport:
    def test_maxord_certificate_wins(self):
        r = ud.rii_report(ud.parse(tangle(5)), ud.parse(F6))
        assert (r.bound, r.certificate) == (2, ud.CERT_MAXORD)

    def test_phi_certificate(self):
        r = ud.rii_report(ud.parse(DELTA), ud.parse(UNKNOT), F)
        assert (r.bound, r.certificate) == (1, ud.CERT_PHI)

    def test_identical_diagrams(self):
        d = ud.parse(tangle(2))
        assert ud.rii_report(d, d).bound == 0

    def test_spec_compare_line(self):
        r = ud.rii_report(ud.parse("O1+ O2+ ; U1+ U2+"), ud.parse("() ; ()"))
        assert str(r) == "bound=1 certificate=maxord-difference detail=|2-0|/2"

    def test_component_mismatch(self):
        with pytest.raises(ud.InvariantError):
            ud.rii_report(ud.parse(DELTA), ud.parse(tangle(1)))

    def test_maxord_once_per_diagram(self, monkeypatch):
        calls = []
        real = ud.invariant.maxord
        monkeypatch.setattr(ud.invariant, "maxord", lambda d: calls.append(d) or real(d))
        d1, d2 = ud.parse("O1+ O2+ ; U1+ U2+"), ud.parse("() ; ()")
        assert str(ud.rii_report(d1, d2)) == "bound=1 certificate=maxord-difference detail=|2-0|/2"
        assert calls == [d1, d2]

    def test_knots_without_cocycle(self):
        r = ud.rii_report(ud.parse(DELTA), ud.parse(UNKNOT))
        assert r.bound == 0

    @pytest.mark.parametrize("codes", [("O1+ O2+ ; U1+ U2+", "() ; ()"), (DELTA, UNKNOT)],
                             ids=["link", "knot"])
    def test_non_cocycle_rejected(self, monkeypatch, codes):
        bad = ud.CocycleTable.from_function(1, 2, lambda a, b, s: int(s > 0))
        calls = []
        real = ud.invariant.cocycle_violation
        monkeypatch.setattr(ud.invariant, "cocycle_violation",
                            lambda t: calls.append(t) or real(t))
        d1, d2 = map(ud.parse, codes)
        with pytest.raises(ud.InvariantError) as info:
            ud.rii_report(d1, d2, bad)
        assert str(info.value) == "table is not an up-down cocycle: condition=0 witness=a=0,eps=+"
        assert len(calls) == 1
        calls.clear()
        ud.rii_report(d1, d2, F)
        assert len(calls) == 1  # once per report, not once per multiset


class TestOrientationIndependence:
    @pytest.mark.parametrize("code", KNOT_CODES)
    def test_example_g_ignores_orientation(self, code):
        d = ud.parse(code)
        reversed_d = ud.reverse_orientation(d)
        assert ud.phi_shift(d, G) == ud.phi_shift(reversed_d, G)

    def test_example_g_separates_delta_from_unknot(self):
        assert ud.phi_shift(ud.parse(DELTA), G) == 1
        assert ud.phi_shift(ud.parse(UNKNOT), G) == 0


def balanced_walk(d, steps, seed):
    """Seeded walk over all five kinds that picks a kind uniformly among
    those with a site, then one of its sites; yields (kind, diagram).
    Picking by kind keeps RII-add, which has the most sites, from
    crowding out the other moves."""
    rng = random.Random(seed)
    for _ in range(steps):
        options = [(kind, moves) for kind in sorted(ud.MOVE_KINDS)
                   if (moves := ud.enumerate_moves(d, {kind}))]
        kind, moves = rng.choice(options)
        d = ud.apply_move(d, rng.choice(moves))
        yield kind, d


# a few shiftable (4,4) tables besides the two named ones
SOUNDNESS_TABLES = {"f": F, "g": G} | {
    f"shiftable-{i}": t for i, t in enumerate(ud.enumerate_shiftable(4, 4)) if i % 18 == 9}


def certificate_bounds(start, current):
    """Every certificate's bound between two diagrams, by name, plus the
    reports that pick the best of them."""
    bounds = {"nonself": ud.rii_bound_nonself(start, current).bound,
              "colcount": int(ud.rii_necessity_colcount(start, current) is not None),
              "report": ud.rii_report(start, current).bound}
    if start.num_components == 2:
        bounds["maxord"] = ud.rii_bound_maxord(start, current).bound
    if start.num_components == 1:
        for name, table in SOUNDNESS_TABLES.items():
            bounds[f"phi-{name}"] = int(ud.rii_necessity_phi(start, current, table))
            bounds[f"report-{name}"] = ud.rii_report(start, current, table).bound
    return bounds


class TestBoundSoundness:
    @pytest.mark.parametrize("code", [DELTA, tangle(2), "O1+ U2- ; O2- U3+ ; O3+ U1+"])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_certificate_within_rii_steps(self, code, seed):
        # the walk is one move sequence, so no lower bound may exceed its RII count
        start = ud.parse(code)
        rii = 0
        for kind, current in balanced_walk(start, 40, seed):
            rii += kind in (ud.RII_ADD, ud.RII_REMOVE)
            for name, bound in certificate_bounds(start, current).items():
                assert bound <= rii, (name, ud.serialize(current))

    @pytest.mark.parametrize("seed", range(5))
    def test_nonself_bound_never_exceeds_known_poke_count(self, seed):
        # ground truth by construction: k poke moves separate d from d'
        d = ud.parse(tangle(2))
        current, pokes = d, 0
        for mv, nxt in ud.random_walk(d, 30, {ud.RII_ADD, ud.RII_REMOVE}, seed=seed):
            if mv is not None:
                pokes += 1
                current = nxt
                assert ud.rii_bound_nonself(d, current).bound <= pokes
                assert ud.rii_bound_maxord(d, current).bound <= pokes

    @pytest.mark.parametrize("seed", range(3))
    def test_bounds_stay_zero_along_free_moves(self, seed):
        d = ud.parse(tangle(2))
        kinds = {ud.RI_ADD, ud.RI_REMOVE, ud.RIII}
        for mv, nxt in ud.random_walk(d, 30, kinds, seed=seed):
            assert ud.rii_report(d, nxt).bound == 0

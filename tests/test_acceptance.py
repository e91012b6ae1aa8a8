"""Acceptance suite: one test per criterion, exact assertions throughout.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion; each test also prints an explicit PASS line visible with -s.
"""

import itertools
import math
import random

import pytest

import updown as ud
from updown.cocycle import _scan_violation
from helpers import (
    DELTA,
    F6,
    KINK,
    KNOT_CODES,
    TREFOIL,
    UNKNOT,
    VIRTUAL_TWO,
    fast_phi,
    random_knot_code,
    tangle,
)

F = ud.builtin_table("example-f")
G = ud.builtin_table("example-g")

WALK_FIXTURES = [KINK, DELTA, TREFOIL, "O1- U2+ O2+ U1-", tangle(2)]
WALKS_PER_FIXTURE = 100
WALK_STEPS = 200
API_CHECK_EVERY = 25

TWO_COMPONENT_FIXTURES = [tangle(i) for i in range(7)] + [F6, "O1+ ; U1+"]


def test_criterion_01_knot_coloring_counts():
    """Random knots have exactly n colorings for every n in 1..10."""
    rng = random.Random(20240811)
    for _ in range(50):
        d = ud.parse(random_knot_code(rng, max_crossings=12))
        for n in range(1, 11):
            spec = ud.ColoringSpec(n)
            assert ud.count_colorings(d, spec) == n
            found = ud.solve_colorings(d, spec)
            assert len(found) == n
            assert all(ud.verify_coloring(d, c) for c in found)
    print("PASS criterion 1: 50 random knots have exactly n verified colorings, n=1..10")


def test_criterion_02_tangle_family_maxord_and_colorability():
    """maxord(T(i)) = 2i and colorability holds exactly when n divides 2i."""
    for i in range(7):
        d = ud.parse(tangle(i))
        assert ud.maxord(d) == 2 * i
        for n in range(1, 21):
            assert ud.is_colorable(d, ud.ColoringSpec(n)) == ((2 * i) % n == 0)
    print("PASS criterion 2: maxord(T(i)) = 2i and n-colorability iff n | 2i, i=0..6")


def test_criterion_03_maxord_bounds():
    """Half the maxord difference bounds the RII count."""
    for i in range(7):
        for j in range(7):
            b = ud.rii_bound_maxord(ud.parse(tangle(i)), ud.parse(tangle(j)))
            assert b.bound == abs(i - j)
    ten, six = ud.parse(tangle(5)), ud.parse(F6)
    assert ud.maxord(ten) == 10 and ud.maxord(six) == 6
    assert ud.rii_bound_maxord(ten, six).bound == 2
    print("PASS criterion 3: maxord bounds |i-j| on the T family and 2 on the 10/6 pair")


def test_criterion_04_cocycle_checker():
    """Both builtin tables pass; every single-entry perturbation fails with
    a reported witness."""
    for table in (F, G):
        assert ud.cocycle_violation(table) is None
        assert ud.check_cocycle(table)
        assert ud.is_shiftable(table)
    for idx in range(len(F.entries)):
        for delta in (1, 2, 3):
            entries = list(F.entries)
            entries[idx] = (entries[idx] + delta) % 4
            v = ud.cocycle_violation(ud.CocycleTable(4, 4, tuple(entries)))
            assert v is not None
            assert 0 <= v.condition <= 8
            assert v.witness
    print("PASS criterion 4: example-f and example-g pass; all 96 perturbations "
          "fail with witnesses")


def _equivalence_holds(t: ud.CocycleTable) -> bool:
    # the condition scan, not check_cocycle, which trusts the closed form
    return ud.check_shiftable_system(t) == (_scan_violation(t) is None and ud.is_shiftable(t))


def _all_tables(n, m):
    for values in itertools.product(range(m), repeat=2 * n * n):
        yield ud.CocycleTable(n, m, values)


def test_criterion_05_shiftable_system_equivalence():
    """check_shiftable_system agrees with the condition scan plus is_shiftable.

    (2,2), (2,3) and (3,2) are swept in full.  At (3,3) the zero-diagonal
    stratum (3**12 tables) is swept in full; a nonzero diagonal entry
    falsifies both sides on their first checked condition, which is
    exercised against every one of the 728 nonzero diagonal patterns with
    three off-diagonal fills each (the full 3**18 sweep is the slow-marked
    test below).  10**4 seeded random tables at (4,4) follow.  Random tables
    rarely pass the zero diagonal, so every difference table (h(0) free) at
    n=1, (4,4), (5,3) and (6,2) closes the criterion: these reach the
    step-2 test for odd and even n.
    """
    for n, m in [(2, 2), (2, 3), (3, 2)]:
        assert all(_equivalence_holds(t) for t in _all_tables(n, m))

    n = m = 3
    diag_idx = [block + a * n + a for block in (0, n * n) for a in range(n)]
    off_idx = [i for i in range(2 * n * n) if i not in diag_idx]
    entries = [0] * (2 * n * n)
    for off_values in itertools.product(range(m), repeat=len(off_idx)):
        for i, v in zip(off_idx, off_values):
            entries[i] = v
        assert _equivalence_holds(ud.CocycleTable(n, m, tuple(entries)))

    rng = random.Random(5)
    zero_diag = ud.CocycleTable.zero(n, m).entries
    for diag_values in itertools.product(range(m), repeat=len(diag_idx)):
        if not any(diag_values):
            continue
        for fill in range(3):
            entries = list(zero_diag)
            for i, v in zip(diag_idx, diag_values):
                entries[i] = v
            if fill:
                for i in off_idx:
                    entries[i] = rng.randrange(m)
            t = ud.CocycleTable(n, m, tuple(entries))
            assert not ud.check_shiftable_system(t)
            assert not ud.check_cocycle(t)
            assert _equivalence_holds(t)

    rng = random.Random(424242)
    for _ in range(10_000):
        t = ud.CocycleTable(4, 4, tuple(rng.randrange(4) for _ in range(32)))
        assert _equivalence_holds(t)

    for n, m in [(1, 1), (1, 2), (1, 3), (4, 4), (5, 3), (6, 2)]:
        blocks = [tuple(h[(a - b) % n] for a in range(n) for b in range(n))
                  for h in itertools.product(range(m), repeat=n)]
        for plus in blocks:
            for minus in blocks:
                assert _equivalence_holds(ud.CocycleTable(n, m, plus + minus))
    print("PASS criterion 5: system equivalence on full (2,2)/(2,3)/(3,2) sweeps, "
          "stratified (3,3), 10^4 random (4,4) tables, and every difference "
          "table at n=1 and (4,4)/(5,3)/(6,2)")


@pytest.mark.slow
def test_criterion_05_full_exhaustive_three_three():
    """Literal sweep of all 3**18 tables at (3,3); takes tens of minutes."""
    assert all(_equivalence_holds(t) for t in _all_tables(3, 3))


def test_criterion_06_phi_values():
    """Scalar and multiset weight sums of the two trivial-knot diagrams."""
    delta, unknot = ud.parse(DELTA), ud.parse(UNKNOT)
    assert ud.phi_shift(delta, F) == 1
    assert ud.phi_shift(unknot, F) == 0
    assert ud.phi_multiset(delta, F).elements == (1, 1, 1, 1)
    print("PASS criterion 6: phi_shift 1 and 0 on the two-crossing diagram and "
          "the bare loop; multiset {1,1,1,1}")


def test_criterion_07_additivity():
    """phi_shift is additive over connected sums at every splice site, and
    prepending the two-crossing summand is always detected."""
    diagrams = [ud.parse(code) for code in KNOT_CODES]
    values = [ud.phi_shift(d, F) for d in diagrams]
    for (d1, v1), (d2, v2) in itertools.product(zip(diagrams, values), repeat=2):
        for p1 in range(d1.arc_count(0)):
            for p2 in range(d2.arc_count(0)):
                summed = ud.connected_sum(d1, d2, ud.SemiArcId(0, p1), ud.SemiArcId(0, p2))
                assert ud.phi_shift(summed, F) == (v1 + v2) % 4
    delta = ud.parse(DELTA)
    for d in diagrams:
        summed = ud.connected_sum(delta, d, ud.SemiArcId(0, 0), ud.SemiArcId(0, 0))
        assert ud.rii_necessity_phi(d, summed, F)
    print("PASS criterion 7: phi_shift additive over all fixture pairs and splice "
          "sites; the extra summand is always detected")


def _shift_profile(d):
    return tuple(ud.component_shift(d, k) for k in range(d.num_components))


def _full_api_profile(d):
    counts = tuple(ud.count_colorings(d, ud.ColoringSpec(n)) for n in range(1, 13))
    return counts, ud.maxord(d)


def test_criterion_08_move_invariance():
    """Kink and triple-slide walks never change the coloring counts, maxord
    or the weight multiset; pokes move maxord by 0 or +-2.

    Component shifts determine all coloring counts and maxord, so they are
    compared at every step; the count_colorings/maxord API and the
    phi_multiset API are re-checked in full every API_CHECK_EVERY steps.
    The per-step multiset uses fast_phi, which reads only the pass sequence
    and the table entries; its agreement with phi_multiset is asserted at
    every API checkpoint.
    """
    kinds = frozenset({ud.RI_ADD, ud.RI_REMOVE, ud.RIII})
    for code in WALK_FIXTURES:
        start = ud.parse(code)
        base_shifts = _shift_profile(start)
        base_api = _full_api_profile(start)
        is_knot = start.num_components == 1
        base_phi = fast_phi(start, F) if is_knot else None
        if is_knot:
            assert base_phi == ud.phi_multiset(start, F).elements
        for walk in range(WALKS_PER_FIXTURE):
            trajectory = ud.random_walk(start, WALK_STEPS, kinds, seed=walk)
            for step, (mv, d) in enumerate(trajectory):
                assert _shift_profile(d) == base_shifts
                if is_knot:
                    assert fast_phi(d, F) == base_phi
                if step % API_CHECK_EVERY == 0:
                    assert _full_api_profile(d) == base_api
                    if is_knot:
                        assert ud.phi_multiset(d, F).elements == base_phi

    for code in TWO_COMPONENT_FIXTURES:
        d = ud.parse(code)
        before = ud.maxord(d)
        for mv in ud.enumerate_moves(d, {ud.RII_ADD, ud.RII_REMOVE}):
            assert abs(ud.maxord(ud.apply_move(d, mv)) - before) in (0, 2)
        for seed in range(3):
            current, g = d, before
            for mv, nxt in ud.random_walk(d, 20, {ud.RII_ADD, ud.RII_REMOVE}, seed=seed):
                if mv is not None:
                    g_next = ud.maxord(nxt)
                    assert abs(g_next - g) in (0, 2)
                    g = g_next
    print(f"PASS criterion 8: {WALKS_PER_FIXTURE} walks x {WALK_STEPS} RI/RIII steps "
          f"from {len(WALK_FIXTURES)} fixtures preserve counts, maxord and the "
          "multiset; every poke moves maxord by 0 or +-2")


def test_criterion_09_necessity_witnesses():
    """The coloring-count witness for T(1) vs T(2) is n = 4; the multiset
    separates the two-crossing diagram from the bare loop."""
    assert ud.rii_necessity_colcount(ud.parse(tangle(1)), ud.parse(tangle(2))) == 4
    assert ud.rii_necessity_phi(ud.parse(DELTA), ud.parse(UNKNOT), F) is True
    print("PASS criterion 9: colcount witness n=4 for T(1)/T(2); multiset "
          "necessity for the two-crossing diagram")


def test_criterion_10_enumeration_goldens():
    """Shiftable-cocycle counts frozen from the pre-build exhaustive oracle."""
    for m in range(1, 5):
        tables = ud.enumerate_shiftable(1, m)
        assert len(tables) == 1
        assert tables[0] == ud.CocycleTable.zero(1, m)
    assert len(ud.enumerate_shiftable(2, 2)) == 4
    four_four = ud.enumerate_shiftable(4, 4)
    assert len(four_four) == 64
    assert F in four_four
    assert G in four_four
    for t in four_four:
        assert _scan_violation(t) is None
        assert ud.is_shiftable(t)
    print("PASS criterion 10: shiftable counts 1 (n=1, m=1..4), 4 at (2,2), "
          "64 at (4,4) containing example-f and example-g")

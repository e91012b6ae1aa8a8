"""The oracles in helpers read the pass sequences alone: a diagram whose
crossing -> position maps are emptied gives them the same answers."""

import random

import pytest

import updown as ud
from helpers import DELTA, brute_add, brute_weight_sum, fast_phi, random_knot_code

F = ud.builtin_table("example-f")
CODES = [DELTA] + [random_knot_code(random.Random(seed)) for seed in range(4)]


def blanked(code: str) -> ud.Diagram:
    """code parsed, then its over and under maps emptied."""
    d = ud.parse(code)
    vars(d)["_over_at"] = {}
    vars(d)["_under_at"] = {}
    return d


def arc_colorings(d: ud.Diagram, n: int) -> list[dict]:
    return [{ud.SemiArcId(k, p): v for k, comp in enumerate(c.colors) for p, v in enumerate(comp)}
            for c in ud.solve_colorings(d, ud.ColoringSpec(n))]


@pytest.mark.parametrize("code", CODES)
class TestBlankedMaps:
    def test_fast_phi(self, code):
        assert fast_phi(blanked(code), F) == fast_phi(ud.parse(code), F)

    def test_brute_weight_sum(self, code):
        d = ud.parse(code)
        for colors in arc_colorings(d, F.n):
            assert brute_weight_sum(blanked(code), colors, F) == brute_weight_sum(d, colors, F)

    def test_brute_add(self, code):
        d = ud.parse(code)
        for mv in ud.enumerate_moves(d, {ud.RI_ADD, ud.RII_ADD})[::5]:
            assert brute_add(blanked(code), mv) == brute_add(d, mv), mv


def test_delta_reads_one():
    """Delta's weight sum under example-f is 1 at every coloring."""
    d = blanked(DELTA)
    assert fast_phi(d, F) == (1,) * F.n
    assert {brute_weight_sum(d, colors, F) for colors in arc_colorings(ud.parse(DELTA), F.n)} == {1}

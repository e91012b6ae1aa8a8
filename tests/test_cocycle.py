"""Cocycle condition checks, shiftability, enumeration and the file format."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import updown as ud
from updown.cocycle import SIGNS, _scan_violation
from helpers import brute_shiftable, brute_violation


def random_table(rng, n, m):
    return ud.CocycleTable(n, m, tuple(
        rng.randrange(m) for _ in range(2 * n * n)))


class TestBuiltins:
    def test_example_f_values(self):
        f = ud.builtin_table("example-f")
        assert f.value(1, 0, -1) == 1
        assert f.value(1, 2, 1) == 0
        assert f.value(3, 1, 1) == 2  # difference two on the positive side

    def test_example_g_values(self):
        g = ud.builtin_table("example-g")
        assert g.value(2, 1, -1) == 1
        assert g.value(2, 1, 1) == 0
        assert g.value(1, 2, -1) == 1
        assert g.value(2, 2, -1) == 0

    def test_zero(self):
        z = ud.builtin_table("zero(3,5)")
        assert z.n == 3 and z.m == 5
        assert set(z.entries) == {0}

    def test_unknown_name(self):
        with pytest.raises(ud.CocycleError):
            ud.builtin_table("example-h")

    def test_zero_budget(self):
        # 2 * 10**10 entries; the guard raises before allocating any
        with pytest.raises(ud.BudgetExceededError) as exc:
            ud.builtin_table("zero(100000,2)")
        assert "20000000000" not in str(exc.value)

    def test_zero_budget_past_str_limit(self):
        # 2 * n * n has more digits than str() formats
        with pytest.raises(ud.BudgetExceededError):
            ud.builtin_table(f"zero({'9' * 2200},2)")

    @pytest.mark.parametrize("name", [f"zero({'9' * 5000},2)", f"zero(2,{'9' * 5000})"],
                             ids=["n", "m"])
    def test_zero_oversized_modulus(self, name):
        # more digits than int() converts
        with pytest.raises(ud.CocycleError, match="too large"):
            ud.builtin_table(name)


class TestCheckCocycle:
    @pytest.mark.parametrize("name", ["example-f", "example-g", "zero(2,2)", "zero(4,4)"])
    def test_valid_tables(self, name):
        t = ud.builtin_table(name)
        assert ud.check_cocycle(t)
        assert ud.cocycle_violation(t) is None

    def test_zero_diagonal_violation(self):
        t = ud.CocycleTable.from_function(2, 2, lambda a, b, s: 1 if (a, b, s) == (0, 0, 1) else 0)
        v = ud.cocycle_violation(t)
        assert v is not None
        assert v.condition == 0
        assert v.witness == (0, 1)
        assert str(v) == "condition=0 witness=a=0,eps=+"

    def test_single_entry_perturbations_of_example_f_fail(self):
        base = ud.builtin_table("example-f")
        for idx in range(len(base.entries)):
            entries = list(base.entries)
            entries[idx] = (entries[idx] + 1) % 4
            v = ud.cocycle_violation(ud.CocycleTable(4, 4, tuple(entries)))
            assert v is not None
            assert 0 <= v.condition <= 8

    def test_nondiagonal_violation_reports_later_condition(self):
        # zero diagonal but unbalanced off-diagonal entries on the plus side
        t = ud.CocycleTable.from_differences(3, 3, (0, 1, 0), (0, 0, 0))
        assert not ud.check_shiftable_system(t)
        v = ud.cocycle_violation(t)
        assert v is not None
        assert v.condition >= 1
        assert len(v.witness) == 3


def _nonconstant_step_differences(rng, n, m):
    # h(0) = 0 on both signs, and some sign's h(u) - h(u - 2) is not constant
    while True:
        rows = [(0,) + tuple(rng.randrange(m) for _ in range(n - 1)) for _ in SIGNS]
        if any(len({(h[u] - h[(u - 2) % n]) % m for u in range(n)}) > 1 for h in rows):
            return ud.CocycleTable.from_differences(n, m, *rows)


class TestViolationOracle:
    """cocycle_violation against brute_violation, which evaluates every
    condition at every point in order."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_shiftable_cocycles_and_perturbations(self, n):
        rng = random.Random(600 + n)
        for m in (2, 3, 4, 5):
            valid = ud.enumerate_shiftable(n, m)
            for t in rng.sample(valid, min(3, len(valid))):
                assert ud.cocycle_violation(t) is None is _scan_violation(t) is brute_violation(t)
                entries = list(t.entries)
                idx = rng.randrange(len(entries))
                entries[idx] = (entries[idx] + rng.randrange(1, m)) % m
                bad = ud.CocycleTable(n, m, tuple(entries))
                assert ud.cocycle_violation(bad) == brute_violation(bad)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_zero_diagonal_tables(self, n):
        rng = random.Random(610 + n)
        for _ in range(30):
            m = rng.randint(2, 5)
            entries = [0 if a == b else rng.randrange(m)
                       for _ in SIGNS for a in range(n) for b in range(n)]
            t = ud.CocycleTable(n, m, tuple(entries))
            assert ud.cocycle_violation(t) == brute_violation(t)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_shiftable_with_nonconstant_step(self, n):
        # the closed form rejects these, so the scan must find the witness;
        # for n <= 2 the step-2 difference is always constant
        rng = random.Random(620 + n)
        for _ in range(30):
            t = _nonconstant_step_differences(rng, n, rng.randint(2, 5))
            assert not ud.check_shiftable_system(t)
            v = ud.cocycle_violation(t)
            assert v is not None and v == brute_violation(t)

    def test_exhaustive_two_two(self):
        for vals in itertools.product(range(2), repeat=8):
            t = ud.CocycleTable(2, 2, vals)
            assert ud.cocycle_violation(t) == brute_violation(t)


class TestConditionBudget:
    def test_wide_scan_raises_before_reading_rows(self):
        # zero diagonal, not shiftable: only the 8 * 300**3 row scan could decide
        t = ud.CocycleTable.from_function(300, 2, lambda a, b, s: int((a, b) == (0, 1)))
        with pytest.raises(ud.BudgetExceededError, match="condition rows"):
            ud.cocycle_violation(t)


class TestShiftable:
    def test_builtins(self):
        assert ud.is_shiftable(ud.builtin_table("example-f"))
        assert ud.is_shiftable(ud.builtin_table("example-g"))

    def test_counterexample(self):
        t = ud.CocycleTable.from_function(2, 2, lambda a, b, s: 1 if (a, b, s) == (1, 1, 1) else 0)
        assert not ud.is_shiftable(t)

    def test_difference_tables_are_shiftable(self):
        t = ud.CocycleTable.from_differences(5, 3, (0, 1, 2, 0, 1), (0, 2, 2, 2, 0))
        assert ud.is_shiftable(t)


class TestSystemEquivalence:
    def test_exhaustive_two_two(self):
        for vals in itertools.product(range(2), repeat=8):
            t = ud.CocycleTable(2, 2, vals)
            assert ud.check_shiftable_system(t) == (
                _scan_violation(t) is None and ud.is_shiftable(t))

    def test_random_three_three(self):
        rng = random.Random(99)
        for _ in range(500):
            t = random_table(rng, 3, 3)
            assert ud.check_shiftable_system(t) == (
                _scan_violation(t) is None and ud.is_shiftable(t))


class TestEnumerate:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_trivial_source_modulus(self, m):
        tables = ud.enumerate_shiftable(1, m)
        assert tables == [ud.CocycleTable.zero(1, m)]

    def test_two_two_golden(self):
        tables = ud.enumerate_shiftable(2, 2)
        assert len(tables) == 4
        for t in tables:
            assert _scan_violation(t) is None
            assert ud.is_shiftable(t)

    def test_three_three_golden(self):
        assert len(ud.enumerate_shiftable(3, 3)) == 9

    def test_deterministic_order(self):
        assert ud.enumerate_shiftable(2, 3) == ud.enumerate_shiftable(2, 3)

    def test_closed_under_addition_and_negation(self):
        for n, m in [(2, 2), (3, 3)]:
            tables = {t.entries for t in ud.enumerate_shiftable(n, m)}
            for e1 in tables:
                assert tuple(-v % m for v in e1) in tables
                for e2 in tables:
                    assert tuple((v1 + v2) % m for v1, v2 in zip(e1, e2)) in tables

    def test_matches_brute_force_oracle(self):
        for n in range(1, 7):
            for m in range(1, 9):
                if m ** (2 * (n - 1)) <= 10**4:
                    assert ud.enumerate_shiftable(n, m) == brute_shiftable(n, m), (n, m)

    @pytest.mark.parametrize("n, m, count", [(6, 6, 324), (8, 8, 1024),
                                             (12, 12, 5184), (4, 20, 1600)])
    def test_counts_beyond_brute_force(self, n, m, count):
        tables = ud.enumerate_shiftable(n, m)
        assert len(set(tables)) == len(tables) == count
        assert _scan_violation(tables[-1]) is None and ud.is_shiftable(tables[-1])

    def test_budget_guard(self):
        # both requests would build more than 10**10 entries; (10**5, 1) has
        # a single table, so only a guard on output size catches it
        for n, m in [(64, 64), (10**5, 1)]:
            with pytest.raises(ud.BudgetExceededError):
                ud.enumerate_shiftable(n, m)

    @pytest.mark.parametrize("n, m", [(10**2199, 2), (4, 10**23)], ids=["n", "m"])
    def test_budget_guard_huge_moduli(self, n, m):
        # the size has more digits than str() formats, or m rows overflow len(range(m))
        with pytest.raises(ud.BudgetExceededError):
            ud.enumerate_shiftable(n, m)

    def test_parallel_matches_serial(self):
        serial = ud.enumerate_shiftable(3, 4)
        parallel = ud.enumerate_shiftable(3, 4, jobs=2)
        assert serial == parallel


def test_import_loads_no_process_machinery():
    code = ("import sys, updown; print(sorted(name for name in sys.modules if name in "
            "('multiprocessing', 'concurrent.futures.process')))")
    src = str(Path(ud.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


class TestFileFormat:
    def test_roundtrip(self):
        for name in ["example-f", "example-g", "zero(2,3)"]:
            t = ud.builtin_table(name)
            assert ud.parse_table(ud.format_table(t)) == t

    def test_header_errors(self):
        with pytest.raises(ud.CocycleError):
            ud.parse_table("")
        with pytest.raises(ud.CocycleError):
            ud.parse_table("n=2\n0 0 + 0\n")

    @pytest.mark.parametrize("header", [f"n={'9' * 5000} m=2", f"n=2 m={'9' * 5000}"],
                             ids=["n", "m"])
    def test_oversized_header(self, header):
        with pytest.raises(ud.CocycleError, match="too large"):
            ud.parse_table(header + "\n0 0 + 0\n")

    @pytest.mark.parametrize("n", ["3000", "9" * 2200], ids=["3000", "2200-digits"])
    def test_header_budget(self, n):
        # raised before the bad entry line is read
        with pytest.raises(ud.BudgetExceededError):
            ud.parse_table(f"n={n} m=2\nnot an entry\n")

    def test_missing_entries(self):
        with pytest.raises(ud.CocycleError, match="missing"):
            ud.parse_table("n=2 m=2\n0 0 + 0\n")

    def test_duplicate_entry(self):
        text = ud.format_table(ud.CocycleTable.zero(2, 2))
        with pytest.raises(ud.CocycleError, match="duplicate"):
            ud.parse_table(text + "0 0 + 0\n")

    @pytest.mark.parametrize("text", [
        "n=1 m=2\n0 0 + 0\n0 0 +- 1",
        "n=1 m=2\n0 0 + 0\n0 0 * 1",
        "n=1 m=2\n0 0 + 0\n0 0 - 1 1",
    ])
    def test_bad_entry_line(self, text):
        with pytest.raises(ud.CocycleError, match="bad entry line"):
            ud.parse_table(text)

    def test_out_of_range(self):
        with pytest.raises(ud.CocycleError, match="outside"):
            ud.parse_table("n=2 m=2\n5 0 + 0\n")

    def test_values_reduced(self):
        text = "n=1 m=3\n0 0 + 7\n0 0 - -1\n"
        t = ud.parse_table(text)
        assert t.value(0, 0, 1) == 1
        assert t.value(0, 0, -1) == 2


class TestTableBasics:
    def test_entry_count_enforced(self):
        with pytest.raises(ud.CocycleError):
            ud.CocycleTable(2, 2, (0,) * 7)

    def test_values_must_be_reduced(self):
        for entries in [(0, 3), (-1, 0), (0, 2)]:
            with pytest.raises(ud.CocycleError, match="reduced residues"):
                ud.CocycleTable(1, 2, entries)

    def test_value_reduces_arguments(self):
        f = ud.builtin_table("example-f")
        for a, b in itertools.product(range(4), repeat=2):
            for s in SIGNS:
                assert f.value(a + 4, b - 4, s) == f.value(a, b, s)

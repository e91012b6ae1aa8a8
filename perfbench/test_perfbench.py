"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import updown as ud  # noqa: E402
import workloads  # noqa: E402


def _inputs(seed):
    rng = random.Random(seed)
    knot = gen.join(gen.knot(rng, 40))
    link = gen.join(gen.link(rng, 3, 30, 4))
    pair = gen.edited_pair(rng, gen.knot(rng, 20), 1)
    tables = (gen.shiftable_table(rng, 4, 4, scale=3).entries,
              gen.random_table(rng, 5, 7).entries)
    return knot, link, pair, tables


class TestGenerator:
    def test_same_seed_same_inputs(self):
        assert _inputs(7) == _inputs(7)
        assert _inputs(7) != _inputs(8)

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_rounds_repeat_per_seed(self, name):
        def kinds(seed):
            return [op.kind for op in workloads.WORKLOADS[name](ud, seed).round(0)]

        assert kinds(3) == kinds(3)

    def test_cli_probe_repeats_per_seed(self):
        def commands(seed):
            probe = workloads.CliProbe(ud, seed, "src", "unused")
            probe._table_file = lambda tag, table: table.entries
            return [(argv, expected) for argv, expected in probe.commands()
                    if not callable(expected)]

        assert commands(3) == commands(3)

    @pytest.mark.parametrize("seed", range(5))
    def test_codes_are_valid_and_oracle_agrees(self, seed):
        rng = random.Random(seed)
        for comps in (gen.knot(rng, 12), gen.link(rng, 2, 10, 3), gen.link(rng, 3, 12, 2)):
            code = gen.join(comps)
            d = ud.parse(code)
            assert ud.serialize(d) == code
            assert oracle.shifts(code) == tuple(ud.component_shift(d, k)
                                                for k in range(d.num_components))
            assert oracle.maxord(code) == ud.maxord(d)
            for n in range(2, 6):
                assert oracle.count(code, n) == ud.count_colorings(d, ud.ColoringSpec(n))
            table = gen.shiftable_table(rng, 4, 4)
            lib = ud.CocycleTable(4, 4, table.entries)
            assert (oracle.phi_multiset(code, table)
                    == ud.phi_multiset(d, lib, allow_links=True).elements)

    def test_links_are_colorable_mod_n(self):
        rng = random.Random(1)
        for k, n in ((2, 6), (3, 8), (3, 3)):
            code = gen.join(gen.link(rng, k, 24, n))
            assert oracle.count(code, n) == n ** k

    @pytest.mark.parametrize("seed", range(10))
    def test_planted_slide_is_a_triple_slide(self, seed):
        rng = random.Random(seed)
        before, after = gen.planted_slide(rng, gen.knot(rng, 6))
        d = ud.parse(gen.join(before))
        results = {ud.serialize(ud.apply_move(d, mv)) for mv in ud.enumerate_moves(d, {ud.RIII})}
        assert gen.join(after) in results

    def test_tables(self):
        rng = random.Random(2)
        for (n, m) in gen.HALVES:
            t = gen.shiftable_table(rng, n, m, scale=5)
            lib = ud.CocycleTable(t.n, t.m, t.entries)
            assert ud.check_cocycle(lib) and ud.is_shiftable(lib)
            assert oracle.is_shiftable(t)
            bad = gen.perturbed_table(rng, t)
            assert ud.cocycle_violation(ud.CocycleTable(n, t.m, bad.entries)).condition >= 1
        t = gen.random_table(rng, 4, 9)
        v = ud.cocycle_violation(ud.CocycleTable(4, 9, t.entries))
        assert (v.condition, v.witness) == (0, oracle.first_bad_diagonal(t))
        assert oracle.format_table(t) == ud.format_table(ud.CocycleTable(4, 9, t.entries))


class TestSpans:
    def _tree(self):
        """root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]; then root2 [20, 22]."""
        times = iter([0, 1, 4, 5, 6, 7, 9, 10, 20, 22])
        t = tracing.Tracer(clock=lambda: next(times))
        root, a, b, c = (t.name_id(x) for x in ("root", "a", "b", "c"))
        r = t.open(root)
        t.close(t.open(a))
        i = t.open(b)
        t.close(t.open(c))
        t.close(i)
        t.close(r)
        t.close(t.open(root))
        return t

    def test_self_time(self):
        stats = tracing.summarize(self._tree(), nested=[("b", "c"), ("a", "c")])
        assert stats["root"] == {"calls": 2, "total_s": 12, "self_s": 5}
        assert stats["a"]["self_s"] == 3
        assert stats["b"]["self_s"] == 3 and stats["b"]["total_s"] == 4
        assert stats["c"] == {"calls": 1, "total_s": 1, "self_s": 1,
                              "within:b": 1, "within:a": 0}

    def test_roots(self):
        assert self._tree().roots() == [0, 0, 0, 0, 4]

    def test_install_nests_calls_across_modules(self):
        t = tracing.Tracer()
        original = ud.coloring.solve_colorings
        undo = tracing.install(t, ud)
        try:
            assert ud.invariant.solve_colorings.__wrapped__ is original
            assert ud.coloring.solve_colorings is ud.invariant.solve_colorings
            t.active = True
            ud.phi_multiset(ud.parse("O1+ U1+"), ud.builtin_table("example-f"))
            t.active = False
        finally:
            tracing.uninstall(undo)
        names = [t.names[i] for i in t.name]
        assert names[:2] == ["diagram.parse", "diagram.construct"]
        phi = names.index("invariant.phi_multiset")
        solve = names.index("coloring.solve_colorings")
        assert t.parent[solve] == phi
        assert t.counts["coloring.solve_colorings.colorings"] == 4
        assert ud.invariant.solve_colorings is original


class TestMeasure:
    def test_percentile_nearest_rank(self):
        samples = list(range(1, 101))
        random.Random(0).shuffle(samples)
        assert measure.percentile(samples, 50) == 50
        assert measure.percentile(samples, 90) == 90
        assert measure.beyond(samples, 90) == 10
        assert measure.percentile([5.0], 90) == 5.0

    def test_runs_hold_enough_samples(self):
        ops = [measure.Op("x", lambda: None, lambda out: True)] * 7
        tally = measure.run_rounds(lambda r: ops, seconds=0)
        assert tally.attempted >= measure.MIN_SAMPLES
        assert tally.attempted == 7 * tally.rounds
        # the reference is timed before the first operation
        assert tally.reference_at[0] == 0 and len(tally.reference_s) >= 1

    def test_latencies_scale_by_nearby_reference_times(self, monkeypatch):
        ref = measure.REFERENCE_S
        tally = measure.Tally(latencies=[1.0] * 6,
                              reference_s=[ref, ref, 2 * ref, 2 * ref, 2 * ref],
                              reference_at=[0, 1, 2, 3, 4])
        monkeypatch.setattr(measure, "CALIBRATE_WINDOW", 1)
        scaled = measure.scaled_latencies(tally)
        # operation j is scaled by the reference times just before and after it
        assert scaled == [1.0, 2 / 3, 0.5, 0.5, 0.5, 0.5]

    def test_reference_is_timed_with_the_collector_off(self):
        seen = []
        measure.reference_seconds(clock=lambda: seen.append(gc.isenabled()) or 0.0)
        assert seen == [False, False] and gc.isenabled()

    def test_wrong_output_counts_as_failed(self):
        def boom():
            raise ud.UpDownError("injected")

        ops = [measure.Op("good", lambda: 2, lambda out: out == 2),
               measure.Op("wrong", lambda: 3, lambda out: out == 2),
               measure.Op("raises", boom, lambda out: True),
               measure.Op("bad-check", lambda: None, lambda out: out.missing)]
        tally = measure.run_rounds(lambda r: ops, rounds=25)
        assert (tally.attempted, tally.failed) == (100, 75)
        assert len(measure.scaled_latencies(tally)) == 100
        metrics = run.end_to_end(tally, [0.1], 1024)
        assert metrics["success_rate"] == (0.25, "ratio")
        assert tally.failures[0].startswith("wrong")


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tally = measure.Tally(latencies=[0.001] * 100, reference_s=[0.001], reference_at=[0],
                          attempted=100)
    e2e = run.end_to_end(tally, [0.1], 1024)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, unit) for k, (_, unit) in e2e.items()]
    probe = dict.fromkeys(("spawn_ms", "main_ms", "startup_ms", "import_ms"), 1.0)
    layers = run.per_layer({}, Counter(), 0.0, probe, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, unit) for k, (_, unit) in layers.items()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)

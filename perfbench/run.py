"""Benchmark of the `updown` package, run from the root of a checkout.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 15 --trace 0

Workloads: walk, certify, cocycle (see workloads.py and README.md).
The program is the checkout's own `src/updown`, imported from source; the
command fails at once where that is missing.

With --trace 0 one closed-loop client runs whole rounds of operations for
--seconds and prints the end-to-end metrics, with timings scaled to a
reference speed (see measure.py).  With --trace 1 it replays a
fixed number of rounds twice, plain and then with a span around every
public function of the six modules, and prints the per-layer metrics
derived from the spans.  Either way the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import setup_probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
CLI_IMPORT_PROBES = 5
SPANS_DIR = ".perfbench-spans"

# (span, fields): "calls", "ms" (total time in the span) or "self_ms".
SPAN_METRICS = (
    ("diagram.parse", ("calls", "self_ms")),
    ("diagram.construct", ("calls", "ms")),
    ("moves.random_walk", ("calls", "self_ms")),
    ("moves.apply_move", ("calls", "self_ms")),
    ("moves.enumerate_moves", ("calls", "ms")),
    ("coloring.count_colorings", ("calls", "ms")),
    ("coloring.maxord", ("calls", "ms")),
    ("coloring.solve_colorings", ("calls", "self_ms")),
    ("invariant.rii_report", ("calls", "self_ms")),
    ("invariant.phi_multiset", ("calls", "self_ms")),
    ("invariant.phi_shift", ("calls", "self_ms")),
    ("cocycle.enumerate_shiftable", ("calls", "self_ms")),
    ("cocycle.check_shiftable_system", ("calls",)),
    ("cocycle.cocycle_violation", ("calls", "ms")),
)
ENUMERATE, CHECK = "cocycle.enumerate_shiftable", "cocycle.check_shiftable_system"


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def timings(latencies) -> tuple[float, float, float]:
    """(operations per second of time in operations, p50 ms, p90 ms)."""
    lat_ms = [s * 1000 for s in latencies]
    return (len(lat_ms) / sum(latencies), measure.percentile(lat_ms, 50),
            measure.percentile(lat_ms, 90))


def end_to_end(tally: measure.Tally, setups, peak_kb: int) -> dict:
    ops_per_s, p50, p90 = timings(measure.scaled_latencies(tally))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        # 1 - error_rate: the bounded metric must never read 0
        "success_rate": (1 - tally.failed / tally.attempted, "ratio"),
    }


def per_layer(stats, counts, hit_ratio: float, probe: dict, overhead: float) -> dict:
    out = {}
    for span, fields in SPAN_METRICS:
        entry = stats.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for f in fields:
            if f == "calls":
                out[f"{span}.calls"] = (entry["calls"], "count")
            else:
                out[f"{span}.{f}"] = (1000 * entry["total_s" if f == "ms" else "self_s"], "ms")
    steps = counts["moves.random_walk.steps"]
    out["moves.random_walk.steps"] = (steps, "count")
    out["moves.random_walk.stall_ratio"] = (
        _ratio(counts["moves.random_walk.stalls"], steps, 0.0), "ratio")
    out["moves.enumerate_moves.descriptors"] = (counts["moves.enumerate_moves.descriptors"],
                                                "count")
    out["coloring.solve_colorings.colorings"] = (counts["coloring.solve_colorings.colorings"],
                                                 "count")
    out["invariant.phi_multiset.sites"] = (counts["invariant.phi_multiset.sites"], "count")
    # candidates: tables the search actually checked; a search that checks
    # none wastes none, so its accept ratio reads 1
    candidates = stats.get(CHECK, {}).get("within:" + ENUMERATE, 0)
    accepted = counts["cocycle.enumerate_shiftable.accepted"]
    out["cocycle.enumerate_shiftable.candidates"] = (candidates, "count")
    out["cocycle.enumerate_shiftable.accepted"] = (accepted, "count")
    out["cocycle.enumerate_shiftable.accept_ratio"] = (_ratio(accepted, candidates, 1.0), "ratio")
    out["cocycle.cocycle_violation.cache_hit_ratio"] = (hit_ratio, "ratio")
    for key in ("spawn_ms", "main_ms", "startup_ms", "import_ms"):
        out[f"cli.{key}"] = (probe[key], "ms")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def cli_probe(probe: workloads.CliProbe, src: str):
    """Medians over the probe's subcommands, spawned and as in-process
    main(argv), plus the import time of updown.cli in a fresh interpreter.
    Returns the metrics and the numbers of outputs checked and mismatched."""
    spawn, main, failed = [], [], 0
    for argv, expected in probe.commands():
        t0 = time.perf_counter()
        spawned = probe.spawn(argv)
        t1 = time.perf_counter()
        called = probe.main(argv)
        t2 = time.perf_counter()
        failed += (not probe.matches(spawned, expected)) + (not probe.matches(called, expected))
        spawn.append(1000 * (t1 - t0))
        main.append(1000 * (t2 - t1))
    snippet = ("import time; t = time.perf_counter(); import updown.cli; "
               "print(time.perf_counter() - t)")
    imports = []
    for _ in range(CLI_IMPORT_PROBES):
        res = measure.run_child([sys.executable, "-c", snippet], env=measure.child_env(src))
        imports.append(1000 * float(res.output))
    return {"spawn_ms": statistics.median(spawn), "main_ms": statistics.median(main),
            "startup_ms": statistics.median(s - m for s, m in zip(spawn, main)),
            "import_ms": statistics.median(imports)}, 2 * len(spawn), failed


def traced_run(ud, wl, seconds: float, spans_path: str):
    """Replay the same rounds plain and then traced, after a traced run of
    the set-up warm-up (so every layer has spans on every workload).
    Returns both tallies and the per-layer inputs."""
    rounds = wl.trace_rounds(seconds)

    make = wl.round
    violation = ud.cocycle.cocycle_violation
    cached = [f for f in (violation, ud.cocycle.is_shiftable) if hasattr(f, "cache_clear")]
    for f in cached:   # both passes start from cold caches
        f.cache_clear()
    plain = measure.run_rounds(make, rounds=rounds)
    for f in cached:
        f.cache_clear()

    tracer = tracing.Tracer()
    cache = [0, 0]   # cocycle_violation hits and misses inside traced operations

    def info():
        return violation.cache_info()[:2] if hasattr(violation, "cache_info") else (0, 0)

    def traced(kind, fn):
        nid = tracer.name_id("op." + kind)

        def run():
            before = info()
            idx = tracer.open(nid)
            tracer.active = True
            try:
                return fn()
            finally:
                tracer.active = False
                tracer.close(idx)
                after = info()
                cache[0] += after[0] - before[0]
                cache[1] += after[1] - before[1]

        return run

    undo = tracing.install(tracer, ud)
    try:
        traced("setup", setup_probe.warm_up)()
        tally = measure.run_rounds(
            make, rounds=rounds, wrap=lambda op: measure.Op(op.kind, traced(op.kind, op.run),
                                                            op.check))
    finally:
        tracing.uninstall(undo)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    stats = tracing.summarize(tracer, nested=[(ENUMERATE, CHECK)])
    overhead = sum(tally.latencies) / sum(plain.latencies) - 1
    return plain, tally, stats, tracer.counts, _ratio(cache[0], sum(cache), 0.0), overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "updown", "__init__.py")):
        print("error: no src/updown here; run from the root of a checkout", file=sys.stderr)
        return 2
    setups = [] if args.trace else measure.setup_times(src, SETUP_PROBES)
    sys.path.insert(0, src)
    ud = setup_probe.warm_up()
    if not os.path.realpath(ud.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"error: imported updown from {ud.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](ud, args.seed)
    if args.trace:
        spans = os.path.join(SPANS_DIR, f"{args.workload}-{args.seed}.tsv")
        plain, tally, stats, counts, hit_ratio, overhead = traced_run(ud, wl, args.seconds, spans)
        with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".perfbench-") as workdir:
            probe = workloads.CliProbe(ud, args.seed, src, workdir)
            probed, probe_attempted, probe_failed = cli_probe(probe, src)
        metrics = per_layer(stats, counts, hit_ratio, probed, overhead)
        attempted = plain.attempted + tally.attempted + probe_attempted
        failed = plain.failed + tally.failed + probe_failed
        if probe_failed:
            tally.failures.append(f"cli probe: {probe_failed} outputs did not match")
        tally.failures[:0] = plain.failures
        print(f"workload={args.workload} seed={args.seed} mode=traced rounds={tally.rounds} "
              f"operations={tally.attempted} spans={spans}")
    else:
        tally = measure.run_rounds(wl.round, seconds=args.seconds)
        metrics = end_to_end(tally, setups, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        attempted, failed = tally.attempted, tally.failed
        scaled = measure.scaled_latencies(tally)
        print(f"workload={args.workload} seed={args.seed} mode=timed rounds={tally.rounds} "
              f"samples={len(scaled)} beyond_p90={measure.beyond(scaled, 90)} "
              f"reference_ms={1000 * statistics.median(tally.reference_s):.4g} "
              f"(median of {len(tally.reference_s)}; scaled to {1000 * measure.REFERENCE_S:g})")
        print("as measured: ops_per_s = {:.6g} 1/s, latency_p50_ms = {:.6g} ms, "
              "latency_p90_ms = {:.6g} ms".format(*timings(tally.latencies)))
        print(f"error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for line in tally.failures:
        print(f"failed: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

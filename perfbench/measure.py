"""Closed-loop timing of operations, percentiles and child processes.

One client keeps one operation in flight.  A run executes whole rounds of
operations (a round is a fixed mix of operation classes with freshly
generated inputs) until the wall-clock budget is spent, so every run holds
the same mix.  Each operation's output is checked right after it returns,
outside its timed span.

Timings are scaled to a reference speed.  A shared host can run the same
code 1.5-1.8 times slower for seconds to minutes at a time, so a figure
taken as measured moves with the share of slow seconds a run happened to
get.  Between operations, at most every CALIBRATE_EVERY_S, the client times
a fixed piece of interpreter work that calls nothing in the program
(`reference_work`); each operation's latency is multiplied by
REFERENCE_S over the median of the reference times taken around it.  The
program's own changes do not move the reference; the host's speed moves
both alike.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import select
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

# At least this many samples puts ten or more beyond the 90th percentile.
MIN_SAMPLES = 100
CALIBRATE_EVERY_S = 0.05
# Reference times on each side of an operation whose median scales it.
CALIBRATE_WINDOW = 4
# `reference_work` takes about this long on the host the benchmark was built
# on (a 2-vCPU x86-64 VM, CPython 3.11, in its fast phases), so scaled
# figures read close to plain seconds there.  A constant: changing it
# rescales every timing.
REFERENCE_S = 1.2e-3
CHILD_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One operation: `run` is timed, `check(output)` is not and returns
    False or raises when the output is wrong."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    # reference times, and the number of operations done before each
    reference_s: list[float] = field(default_factory=list)
    reference_at: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, op: Op, seconds: float, ok: bool, why: str = ""):
        self.latencies.append(seconds)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.kind}: {why}".rstrip())


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q percent
    of the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(samples, q: float) -> int:
    """Number of samples strictly above the q-th percentile."""
    cut = percentile(samples, q)
    return sum(1 for s in samples if s > cut)


def reference_work() -> int:
    """A fixed piece of interpreter work: allocation, dict and list
    building, sorting.  It touches nothing of the program."""
    xs = [(i * 2654435761) & 0xFFFFF for i in range(5000)]
    groups: dict[int, list[int]] = {}
    for x in xs:
        groups.setdefault(x & 1023, []).append(x)
    ordered = sorted(xs)
    return len(groups) + len(list(zip(ordered, reversed(ordered))))


def reference_seconds(clock=time.perf_counter) -> float:
    """Time one `reference_work`, with the collector off so that the
    program's heap does not move it."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        reference_work()
        return clock() - t0
    finally:
        if was_on:
            gc.enable()


def scaled_latencies(tally: Tally) -> list[float]:
    """Each latency times REFERENCE_S over the median of the reference
    times taken within CALIBRATE_WINDOW of it on either side."""
    out = []
    for j, seconds in enumerate(tally.latencies):
        p = bisect.bisect_right(tally.reference_at, j)
        near = tally.reference_s[max(0, p - CALIBRATE_WINDOW):p + CALIBRATE_WINDOW]
        out.append(seconds * REFERENCE_S / statistics.median(near))
    return out


def run_op(op: Op, tally: Tally, clock=time.perf_counter) -> float:
    """Time one operation, then check its output; returns its latency."""
    t0 = clock()
    try:
        out = op.run()
    except Exception as exc:  # a raising operation counts as failed
        dt = clock() - t0
        tally.record(op, dt, False, "".join(traceback.format_exception_only(exc)).strip())
        return dt
    dt = clock() - t0
    try:
        ok, why = bool(op.check(out)), "wrong output"
    except Exception as exc:
        ok, why = False, "".join(traceback.format_exception_only(exc)).strip()
    tally.record(op, dt, ok, why)
    return dt


def run_rounds(make_round: Callable[[int], list[Op]], seconds: float | None = None,
               rounds: int | None = None, wrap: Callable[[Op], Op] | None = None) -> Tally:
    """Run whole rounds until `seconds` of wall time have passed and at
    least MIN_SAMPLES operations are done, or exactly `rounds` rounds.
    Times `reference_work` before the first operation and then after any
    operation that ends CALIBRATE_EVERY_S or more after the last one."""
    tally = Tally()
    start = time.perf_counter()
    last = -math.inf
    r = 0
    while True:
        if rounds is not None:
            if r >= rounds:
                break
        elif time.perf_counter() - start >= seconds and tally.attempted >= MIN_SAMPLES:
            break
        for op in make_round(r):
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                tally.reference_s.append(reference_seconds())
                tally.reference_at.append(tally.attempted)
                last = time.perf_counter()
            run_op(wrap(op) if wrap else op, tally)
        r += 1
    tally.rounds = r
    return tally


# -- child processes -------------------------------------------------------------


@dataclass
class ChildResult:
    output: bytes
    exit_code: int
    first_output_s: float
    total_s: float
    maxrss_kb: int


def run_child(argv, env=None, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run a child with stdout and stderr merged, reaping it with wait4 so
    its own peak RSS is known.  Returns the time to its first output and
    to its exit; a child past the timeout is killed and reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    chunks, first = [], None
    fd = proc.stdout.fileno()
    try:
        while True:
            left = t0 + timeout - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                proc.kill()
                raise TimeoutError(f"child exceeded {timeout} s: {argv[:4]}")
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            if first is None:
                first = time.perf_counter() - t0
            chunks.append(chunk)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    total = time.perf_counter() - t0
    return ChildResult(b"".join(chunks), proc.returncode,
                       total if first is None else first, total, usage.ru_maxrss)


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def setup_times(src: str, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its set-up
    (import and warm-up, see setup_probe.py), once per probe, each scaled
    by the reference times taken just before and after it."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    env = child_env(src)
    times = []
    for _ in range(probes):
        before = reference_seconds()
        res = run_child([sys.executable, script], env=env)
        after = reference_seconds()
        if res.exit_code != 0 or not res.output.startswith(b"ready"):
            raise RuntimeError("set-up probe failed: " + res.output.decode(errors="replace"))
        times.append(res.first_output_s * REFERENCE_S / statistics.median((before, after)))
    return times

"""Time one random_walk step, and the full local scan, against diagram size.

Grows knots by seeded RI-add/RII-add/RIII walks from the trefoil to about
100, 300, 1,100 and 4,100 crossings, then times 200-step walks from each
with the local kinds plus RI-add (RI-add, RI-remove, RIII) and with all
kinds.  A step's time includes its walk's one start-up scan, spread over
the 200 steps.  That scan, enumerate_moves over RI-remove, RII-remove and
RIII, is timed on its own (scan_us) on the grown knot and on a knot of as
many crossings whose passes are uniformly shuffled (shuffled_scan_us).

A shared host can run the same code much slower for seconds at a time, so
each timing is divided by the median of three timings of a fixed piece of
interpreter work taken around it, and reported in microseconds at the
speed where that work takes 1.2 ms.  Each figure is the median of 7
timings: of one walk each (seeds 0-6), or of 20 scans.  Prints one JSON
line per size, then the log-log slope between the two largest sizes.  Run
from the repository root:

    PYTHONPATH=src python3 tools/walk_steps.py
"""

import gc
import json
import math
import random
import statistics
import time

import updown as ud

TARGETS = (100, 300, 1100, 4100)
STEPS, REPEATS, SCANS = 200, 7, 20
REFERENCE_S = 1.2e-3
LOCAL = frozenset({ud.RI_ADD, ud.RI_REMOVE, ud.RIII})
GROW = frozenset({ud.RI_ADD, ud.RII_ADD, ud.RIII})
SCAN = frozenset({ud.RI_REMOVE, ud.RII_REMOVE, ud.RIII})


def grown(target: int, seed: int = 0) -> ud.Diagram:
    """A knot of at least target crossings, grown by walks from the trefoil."""
    d = ud.parse("O1+ U2+ O3+ U1+ O2+ U3+")
    while d.num_crossings < target:
        d = ud.random_walk(d, min(50, (target - d.num_crossings + 1) // 2), GROW, seed)[-1][1]
        d, seed = ud.parse(ud.serialize(d)), seed + 1
    return d


def shuffled(crossings: int, seed: int = 0) -> ud.Diagram:
    """A knot of the given crossings with its passes in a uniformly shuffled order."""
    rng = random.Random(seed)
    signs = [rng.choice((1, -1)) for _ in range(crossings)]
    passes = [ud.Pass(x, role, sign) for x, sign in enumerate(signs, 1) for role in (ud.OVER, ud.UNDER)]
    rng.shuffle(passes)
    return ud.Diagram((tuple(passes),))


def reference_seconds() -> float:
    """One timing of fixed interpreter work that calls nothing in updown."""
    start = time.perf_counter()
    xs = [(i * 2654435761) & 0xFFFFF for i in range(5000)]
    groups: dict[int, list[int]] = {}
    for x in xs:
        groups.setdefault(x & 1023, []).append(x)
    sorted(xs)
    return time.perf_counter() - start


def scaled_us(work, count: int) -> float:
    """Microseconds per unit of work(seed), which does count units: the
    median over seeds 0-6, each timing scaled by the reference timings."""
    scaled = []
    for seed in range(REPEATS):
        gc.collect()
        before = [reference_seconds(), reference_seconds()]
        start = time.perf_counter()
        work(seed)
        seconds = time.perf_counter() - start
        scaled.append(seconds * REFERENCE_S / statistics.median(before + [reference_seconds()]))
    return statistics.median(scaled) / count * 1e6


def step_us(d: ud.Diagram, kinds) -> float:
    return scaled_us(lambda seed: ud.random_walk(d, STEPS, kinds, seed), STEPS)


def scan_us(d: ud.Diagram) -> float:
    return scaled_us(lambda seed: [ud.enumerate_moves(d, SCAN) for _ in range(SCANS)], SCANS)


def main() -> None:
    rows = []
    for target in TARGETS:
        d = grown(target)
        row = {"crossings": d.num_crossings, "local_us": round(step_us(d, LOCAL), 1),
               "all_us": round(step_us(d, ud.MOVE_KINDS), 1), "scan_us": round(scan_us(d), 1),
               "shuffled_scan_us": round(scan_us(shuffled(d.num_crossings)), 1)}
        rows.append(row)
        print(json.dumps(row), flush=True)
    a, b = rows[-2], rows[-1]
    keys = [key for key in b if key != "crossings"]
    scale = math.log(b["crossings"] / a["crossings"])
    print(json.dumps({key: round(math.log(b[key] / a[key]) / scale, 2)
                      for key in keys} | {"slope": "log-log, two largest"}))


if __name__ == "__main__":
    main()

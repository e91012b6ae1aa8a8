"""Time layers of updown against input size, one JSON line per layer.

Walk layers: knots are grown by seeded RI-add/RII-add/RIII walks from the
trefoil to about 100, 300, 1,100 and 4,100 crossings, and 200-step walks
from each are timed with the local kinds plus RI-add (RI-add, RI-remove,
RIII) and with all kinds.  A step's time includes its walk's one start-up
scan, spread over the 200 steps.  That scan, enumerate_moves over
RI-remove, RII-remove and RIII, is timed on its own (local_scan) on the
grown knot and on a knot of as many crossings whose passes are uniformly
shuffled (shuffled_local_scan).

Weight-sum and coloring layers: phi_multiset, phi_shift and
solve_colorings on grown knots of about 64, 128, 256, 512 and 1,024
crossings over Z_4 (a shiftable cocycle for the first two), phi_multiset
(allow_links) on 3-component links of about 16 to 128 crossings, whose
n**3 colorings all exist, over Z_4 and Z_8, and count_colorings on such
links of about 64 to 1,024 crossings over Z_4.

A shared host can run the same code much slower for seconds at a time, so
each timing is divided by the median of three timings of a fixed piece of
interpreter work taken around it, and reported in microseconds at the
speed where that work takes 1.2 ms.  Each figure is the median of 7
timings: of one walk each (seeds 0-6), or of 20 scans or calls.  Each line
gives the layer, its sizes in crossings, its times, and the log-log slope
between the two largest sizes.  Run from the repository root:

    PYTHONPATH=src python3 tools/scale.py
"""

import gc
import json
import math
import random
import statistics
import time

import updown as ud

TARGETS = (100, 300, 1100, 4100)
PHI_KNOTS = (64, 128, 256, 512, 1024)
PHI_LINKS = (16, 32, 64, 128)
COUNT_LINKS = (64, 128, 256, 512, 1024)
STEPS, REPEATS, CALLS = 200, 7, 20
REFERENCE_S = 1.2e-3
LOCAL = frozenset({ud.RI_ADD, ud.RI_REMOVE, ud.RIII})
GROW = frozenset({ud.RI_ADD, ud.RII_ADD, ud.RIII})
SCAN = frozenset({ud.RI_REMOVE, ud.RII_REMOVE, ud.RIII})
SPEC4 = ud.ColoringSpec(4)


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


def link(crossings: int, seed: int = 0) -> ud.Diagram:
    """A 3-component link of about the given crossings, every pass at a
    random position: self-crossings, and crossings between two components
    in pairs that swap over and under, so every component shift is 0."""
    rng, comps, x = random.Random(seed), [[], [], []], 0
    while x < crossings:
        j, k = rng.randrange(3), rng.randrange(3)
        for over, under in [(j, k)] if j == k else [(j, k), (k, j)]:
            x, sign = x + 1, rng.choice((1, -1))
            for comp, role in ((over, ud.OVER), (under, ud.UNDER)):
                comps[comp].insert(rng.randint(0, len(comps[comp])), ud.Pass(x, role, sign))
    return ud.Diagram(comps)


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


def calls_us(call) -> float:
    return scaled_us(lambda seed: [call() for _ in range(CALLS)], CALLS)


def report(layer: str, sizes, times) -> None:
    """Print one layer's line, with the log-log slope between its two largest sizes."""
    slope = math.log(times[-1] / times[-2]) / math.log(sizes[-1] / sizes[-2])
    print(json.dumps({"layer": layer, "crossings": sizes, "us": [round(t, 1) for t in times],
                      "slope": round(slope, 2)}), flush=True)


def main() -> None:
    walk = {"walk_step_local": [], "walk_step_all": [], "local_scan": [], "shuffled_local_scan": []}
    sizes = []
    for target in TARGETS:
        d = grown(target)
        sizes.append(d.num_crossings)
        walk["walk_step_local"].append(step_us(d, LOCAL))
        walk["walk_step_all"].append(step_us(d, ud.MOVE_KINDS))
        walk["local_scan"].append(calls_us(lambda: ud.enumerate_moves(d, SCAN)))
        walk["shuffled_local_scan"].append(calls_us(lambda e=shuffled(d.num_crossings): ud.enumerate_moves(e, SCAN)))
    for layer, times in walk.items():
        report(layer, sizes, times)

    table4 = ud.enumerate_shiftable(4, 4)[-1]
    knots = [grown(target) for target in PHI_KNOTS]
    sizes = [d.num_crossings for d in knots]
    report("phi_multiset_knot_n4", sizes, [calls_us(lambda: ud.phi_multiset(d, table4)) for d in knots])
    report("phi_shift_knot_n4", sizes, [calls_us(lambda: ud.phi_shift(d, table4)) for d in knots])
    report("solve_colorings_knot_n4", sizes, [calls_us(lambda: ud.solve_colorings(d, SPEC4)) for d in knots])
    links = [link(target) for target in PHI_LINKS]
    sizes = [d.num_crossings for d in links]
    for table in (table4, ud.enumerate_shiftable(8, 2)[-1]):
        report(f"phi_multiset_link3_n{table.n}", sizes,
               [calls_us(lambda: ud.phi_multiset(d, table, allow_links=True)) for d in links])
    links = [link(target) for target in COUNT_LINKS]
    report("count_colorings_link3_n4", [d.num_crossings for d in links],
           [calls_us(lambda: ud.count_colorings(d, SPEC4)) for d in links])


if __name__ == "__main__":
    main()

"""The workloads, each a generator of rounds of checked operations, and the
CLI probe of the traced run.

A round is a fixed list of operation classes (the mix) whose inputs are
drawn afresh from the seed and the round number, so runs with different
seeds do the same kind and amount of work on different inputs.  Inputs are
generated and parsed while building a round, before any timing.  Operations
look library functions up on the `updown` package at call time, so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
from collections import Counter

import gen
import measure
import oracle
from measure import Op

WALK_STEPS = 20
CLI_WALK_STEPS = 20
CROSSING_DELTA = {"RI-add": 1, "RI-remove": -1, "RII-add": 2, "RII-remove": -2, "RIII": 0}


class Workload:
    """Base: `round(r)` builds round r's operations for this seed."""

    name = ""
    # Rounds the traced run replays per second of --seconds; a constant, so
    # the traced work and its counts depend only on the seed.
    trace_rounds_per_s = 1.0

    def __init__(self, ud, seed: int):
        self.ud = ud
        self.seed = seed

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def trace_rounds(self, seconds: float) -> int:
        return max(1, round(seconds * self.trace_rounds_per_s))

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


def _lib_table(ud, table: gen.Table):
    return ud.CocycleTable(table.n, table.m, table.entries)


# -- walk ------------------------------------------------------------------------


class Walk(Workload):
    """Seeded `random_walk` calls from knots on a crossing ladder and from
    2- and 3-component links, half RI/RIII-only and half all-kinds, plus
    read-side sweeps: `enumerate_moves` and `apply_move` of every
    descriptor on a small two-component diagram."""

    name = "walk"
    KNOTS = (16, 32, 64, 128, 256, 512, 1024)
    LINKS = ((2, 48), (3, 48), (2, 96), (3, 96))
    SWEEP = (2, 8)
    SWEEPS = 3
    trace_rounds_per_s = 0.6

    def round(self, r):
        ud, rng = self.ud, self.rng(r)
        r13 = frozenset({ud.RI_ADD, ud.RI_REMOVE, ud.RIII})
        starts = [gen.knot(rng, gen.jitter(rng, c)) for c in self.KNOTS]
        starts += [gen.link(rng, k, gen.jitter(rng, c), rng.randint(2, 4)) for k, c in self.LINKS]
        # one walk per round, rotating, is re-run to check the trajectory repeats
        repeat_at = r % (2 * len(starts))
        ops = []
        for comps in starts:
            for kinds in (r13, ud.MOVE_KINDS):
                ops.append(self._walk(gen.join(comps), kinds, rng.randrange(2**31),
                                      repeat=len(ops) == repeat_at))
        ops += [self._sweep(gen.join(gen.link(rng, *self.SWEEP, 2))) for _ in range(self.SWEEPS)]
        return ops

    def _walk(self, code, kinds, seed, repeat):
        ud = self.ud
        d = ud.parse(code)
        start_shifts, start_x = oracle.shifts(code), oracle.crossings(code)
        rigid = ud.RII_ADD not in kinds

        def check(traj):
            if len(traj) != WALK_STEPS:
                return False
            delta = 0
            for mv, _ in traj:
                if mv is not None:
                    if mv.kind not in kinds:
                        return False
                    delta += CROSSING_DELTA[mv.kind]
            end = traj[-1][1]
            text = ud.serialize(end)
            if ud.parse(text) != end or oracle.crossings(text) != start_x + delta:
                return False
            shifts = oracle.shifts(text)
            if len(shifts) != len(start_shifts) or (rigid and shifts != start_shifts):
                return False
            return not repeat or ud.random_walk(d, WALK_STEPS, kinds, seed) == traj

        return Op("walk.ri_riii" if rigid else "walk.all",
                  lambda: ud.random_walk(d, WALK_STEPS, kinds, seed), check)

    def _sweep(self, code):
        ud = self.ud
        d = ud.parse(code)
        comps = gen.split(code)
        arcs = sum(max(1, len(c)) for c in comps)
        x = oracle.crossings(code)

        def run():
            moves = ud.enumerate_moves(d, ud.MOVE_KINDS)
            return moves, [ud.apply_move(d, mv) for mv in moves]

        def check(out):
            moves, results = out
            keys = [(mv.kind, mv.sites, str(mv.variant)) for mv in moves]
            kinds = Counter(mv.kind for mv in moves)
            return (keys == sorted(set(keys))
                    and kinds[ud.RI_ADD] == 4 * arcs
                    and kinds[ud.RII_ADD] == 4 * arcs * (arcs - 1)
                    and all(res.num_crossings == x + CROSSING_DELTA[mv.kind]
                            and res.num_components == len(comps)
                            for mv, res in zip(moves, results)))

        return Op("walk.sweep", run, check)


# -- certify -----------------------------------------------------------------------


class Certify(Workload):
    """The `compare`/`phi` traffic of a user certifying bounds: knot and link
    pairs through parse + `rii_report`, `phi_shift` and `phi_multiset` on
    knots, and closed-form counts plus multisets on colorable links."""

    name = "certify"
    PAIRS = (8, 16, 32, 64, 128, 256, 512, 1024)
    LINK_PAIRS = ((2, 32), (3, 32), (2, 64), (3, 64))
    PHI = (64, 256, 1024)
    COUNTS = ((2, 64), (3, 64), (2, 64), (3, 64))
    LINK_MULTISETS = ((2, 6), (3, 8), (3, 4))   # (components, n)
    LARGER = ((5, 5), (6, 3), (8, 2))
    trace_rounds_per_s = 2.0

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for c in self.PAIRS:
            table = gen.shiftable_table(rng, 4, 4)
            ops.append(self._compare(gen.edited_pair(rng, gen.knot(rng, gen.jitter(rng, c) - 3),
                                                     rng.choice((0, 0, 1))), table))
        for k, c in self.LINK_PAIRS:
            comps = gen.link(rng, k, gen.jitter(rng, c), rng.randint(2, 4))
            ops.append(self._compare(gen.edited_pair(rng, comps, rng.choice((0, 1))), None))
        for i, c in enumerate(self.PHI):
            big = self.LARGER[(r + i) % len(self.LARGER)]
            ops.append(self._phi_shift(gen.join(gen.knot(rng, gen.jitter(rng, c))),
                                       gen.shiftable_table(rng, *big)))
            ops.append(self._phi_multiset(gen.join(gen.knot(rng, gen.jitter(rng, c))),
                                          gen.shiftable_table(rng, 4, 4), False))
        for k, c in self.COUNTS:
            ops.append(self._counts(gen.join(gen.link(rng, k, c, rng.randint(2, 6))),
                                    rng.randint(2, 8)))
        for k, n in self.LINK_MULTISETS:
            base = {4: (4, 4), 6: (6, 3), 8: (8, 2)}[n]
            ops.append(self._phi_multiset(gen.join(gen.link(rng, k, 24, n)),
                                          gen.shiftable_table(rng, *base), True))
        return ops

    def _compare(self, pair, table):
        ud = self.ud
        code1, code2 = pair
        lib = _lib_table(ud, table) if table else None
        return Op("certify.compare",
                  lambda: ud.rii_report(ud.parse(code1), ud.parse(code2), lib),
                  lambda out: str(out) == oracle.report(code1, code2, table))

    def _phi_shift(self, code, table):
        ud = self.ud
        d, lib = ud.parse(code), _lib_table(ud, table)

        def check(out):
            sums = oracle.weight_sums(code, table)
            return len(set(sums)) == 1 and out == sums[0]

        return Op("certify.phi_shift", lambda: ud.phi_shift(d, lib), check)

    def _phi_multiset(self, code, table, links):
        ud = self.ud
        d, lib = ud.parse(code), _lib_table(ud, table)
        return Op("certify.link_multiset" if links else "certify.phi_multiset",
                  lambda: ud.phi_multiset(d, lib, allow_links=links),
                  lambda out: out.elements == oracle.phi_multiset(code, table))

    def _counts(self, code, n):
        ud = self.ud
        d = ud.parse(code)
        return Op("certify.counts",
                  lambda: (ud.count_colorings(d, ud.ColoringSpec(n)), ud.maxord(d)),
                  lambda out: out == (oracle.count(code, n), oracle.maxord(code)))


# -- cocycle -------------------------------------------------------------------------


class Cocycle(Workload):
    """`enumerate_shiftable` over an (n, m) ladder, interleaved with checks
    of distinct seeded tables (random ones fail condition 0 at once,
    perturbed cocycles fail later, valid ones scan every condition) and
    `format_table`/`parse_table` round trips.  A check or round trip
    handles one table for each n from 2 to 6."""

    name = "cocycle"
    # (4, 6) takes about 1.5 s; a run would hold too few of them to be steady
    SEARCHES = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 6), (4, 4), (3, 9), (3, 12), (4, 5))
    # After each search: 4 table operations, cycling through this list (36
    # per round, so p50 falls among the valid checks and round trips and
    # p90 on the (3, 6) search).
    TABLE_OPS = ("random", "valid", "roundtrip", "perturbed", "valid", "roundtrip")
    NS = range(2, 7)
    VALID = {2: ((2, 2), (2, 3), (2, 4)), 3: ((3, 3), (3, 6), (3, 9), (3, 12)),
             4: ((4, 4), (4, 5), (4, 6)), 5: ((5, 5),), 6: ((6, 2), (6, 3))}
    trace_rounds_per_s = 0.2

    def round(self, r):
        rng = self.rng(r)
        ops = []
        i = 0
        for n, m in self.SEARCHES:
            ops.append(self._search(n, m))
            for _ in range(4):
                kind = self.TABLE_OPS[i % len(self.TABLE_OPS)]
                ops.append(self._roundtrip(rng) if kind == "roundtrip" else self._check(rng, kind))
                i += 1
        return ops

    def _valid(self, rng, n):
        return gen.shiftable_table(rng, *rng.choice(self.VALID[n]), scale=rng.randint(1, 64))

    def _search(self, n, m):
        ud = self.ud
        expected = oracle.search_vectors(n, m)

        def check(tables):
            return ([oracle.table_vector(n, t.value) for t in tables] == expected
                    and all((t.n, t.m) == (n, m) and ud.check_cocycle(t) and ud.is_shiftable(t)
                            for t in tables))

        return Op("cocycle.search", lambda: ud.enumerate_shiftable(n, m), check)

    def _check(self, rng, kind):
        ud = self.ud
        if kind == "random":
            tables = [gen.random_table(rng, n, rng.randint(2, 12)) for n in self.NS]
        elif kind == "perturbed":
            tables = [gen.perturbed_table(rng, self._valid(rng, n)) for n in self.NS]
        else:
            tables = [self._valid(rng, n) for n in self.NS]
        libs = [_lib_table(ud, t) for t in tables]

        def expected(table, violation, shiftable):
            if kind == "valid":
                return violation is None and shiftable
            if kind == "perturbed":
                return violation is not None and violation.condition >= 1 and not shiftable
            return ((violation.condition, violation.witness)
                    == (0, oracle.first_bad_diagonal(table))
                    and shiftable == oracle.is_shiftable(table))

        return Op(f"cocycle.check_{kind}",
                  lambda: [(ud.cocycle_violation(t), ud.is_shiftable(t)) for t in libs],
                  lambda out: all(expected(t, *o) for t, o in zip(tables, out)))

    def _roundtrip(self, rng):
        ud = self.ud
        tables = [gen.random_table(rng, n, rng.randint(2, 12)) for n in self.NS]
        libs = [_lib_table(ud, t) for t in tables]

        def run():
            return [(text, ud.parse_table(text)) for text in map(ud.format_table, libs)]

        return Op("cocycle.roundtrip", run,
                  lambda out: all(text == oracle.format_table(t) and parsed == lib
                                  for t, lib, (text, parsed) in zip(tables, libs, out)))


# -- cli ----------------------------------------------------------------------------------


class CliProbe:
    """Nine CLI subcommands with their expected stdout, run as
    `python -m updown.cli` subprocesses and as in-process `main(argv)` calls.
    The traced run times them for the cli.* metrics.  (A workload of CLI
    subprocesses was tried and left out: its latencies moved 25-30% between
    runs on the host this was built on.)"""

    def __init__(self, ud, seed: int, src: str, workdir: str):
        self.ud = ud
        self.rng = random.Random(f"cli:{seed}")
        self.env = measure.child_env(src)
        self.workdir = workdir

    def _table_file(self, tag: str, table: gen.Table) -> str:
        path = os.path.join(self.workdir, f"{tag}.txt")
        with open(path, "w") as fh:
            fh.write(oracle.format_table(table))
        return "@" + path

    def commands(self):
        """(argv, expected stdout or a callable giving it) per subcommand."""
        rng = self.rng
        out = []
        knot = gen.join(gen.knot(rng, rng.randint(32, 64)))
        out.append((["validate", knot], f"valid components=1 crossings={oracle.crossings(knot)}"))
        lk = gen.join(gen.link(rng, rng.randint(2, 3), 32, rng.randint(2, 6)))
        out.append((["maxord", lk], f"maxord={oracle.maxord(lk)}"))
        lk = gen.join(gen.link(rng, rng.randint(2, 3), 32, rng.randint(2, 6)))
        n = rng.randint(2, 8)
        out.append((["count", lk, "--n", str(n)], f"count={oracle.count(lk, n)}"))
        table = gen.shiftable_table(rng, 4, 4)
        knot = gen.join(gen.knot(rng, 48))
        out.append((["phi", knot, "--cocycle", self._table_file("phi", table)],
                    f"phi_shift={oracle.weight_sums(knot, table)[0]}"))
        table = gen.shiftable_table(rng, 4, 4)
        code1, code2 = gen.edited_pair(rng, gen.knot(rng, 45), rng.choice((0, 1)))
        out.append((["compare", code1, code2, "--cocycle", self._table_file("cmp", table)],
                    oracle.report(code1, code2, table)))
        valid = rng.random() < 0.5
        n = rng.randint(2, 4)
        table = (gen.shiftable_table(rng, n, n) if valid
                 else gen.random_table(rng, n, rng.randint(2, 12)))
        out.append((["cocycle-check", self._table_file("chk", table)],
                    oracle.cocycle_check_line(table, valid)))
        out.append((["cocycle-search", "--n", "3", "--m", "3"], "count=9"))
        knot = gen.join(gen.knot(rng, rng.randint(16, 32)))
        seed = rng.randrange(1000)
        out.append((["walk", knot, "--steps", str(CLI_WALK_STEPS), "--seed", str(seed)],
                    lambda: self._walk_lines(knot, seed)))
        k1, k2 = gen.join(gen.knot(rng, 12)), gen.join(gen.knot(rng, 12))
        at1, at2 = rng.randrange(24), rng.randrange(24)
        out.append((["connect", k1, k2, "--at1", str(at1), "--at2", str(at2)],
                    oracle.connect(k1, k2, at1, at2)))
        return out

    def _walk_lines(self, code, seed):
        ud = self.ud
        traj = ud.random_walk(ud.parse(code), CLI_WALK_STEPS, ud.MOVE_KINDS, seed)
        lines = []
        for i, (mv, d) in enumerate(traj, start=1):
            if mv is None:
                lines.append(f"step={i} move=stall code={ud.serialize(d)}")
                continue
            sites = ",".join(f"{k}:{p}" for k, p in mv.sites)
            lines.append(f"step={i} move={mv.kind}/{mv.variant}@{sites} "
                         f"code={ud.serialize(d)}")
        return "\n".join(lines)

    @staticmethod
    def matches(out, expected) -> bool:
        text, code = out
        return code == 0 and text == (expected() if callable(expected) else expected) + "\n"

    def spawn(self, argv):
        res = measure.run_child([sys.executable, "-m", "updown.cli", *argv], env=self.env)
        return res.output.decode(), res.exit_code

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = self.ud.cli.main(argv)
        return buf.getvalue(), code


WORKLOADS = {w.name: w for w in (Walk, Certify, Cocycle)}

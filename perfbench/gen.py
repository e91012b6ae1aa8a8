"""Seeded benchmark inputs: signed Gauss codes, pair edits and weight tables.

Everything here is string and integer work on the text grammar of
`updown.diagram`; nothing imports `updown`, so the program under test only
ever receives generated inputs.  A diagram under construction is a list of
components, each a list of pass tokens such as "O3+".
"""

from __future__ import annotations

import random

# Shiftable cocycles f(a, b, eps) = h_eps((a - b) mod n) into Z_m, frozen
# from `enumerate_shiftable` at the commit that introduced the benchmark.
# Each entry lists the admissible difference rows (h(1), ..., h(n-1)); a
# table is any (plus, minus) pair of rows, and enumeration order is the
# lexicographic order of plus + minus.
HALVES = {
    (2, 2): [(0,), (1,)],
    (2, 3): [(0,), (1,), (2,)],
    (2, 4): [(0,), (1,), (2,), (3,)],
    (3, 3): [(0, 0), (1, 2), (2, 1)],
    (3, 6): [(0, 0), (2, 4), (4, 2)],
    (3, 9): [(0, 0), (3, 6), (6, 3)],
    (3, 12): [(0, 0), (4, 8), (8, 4)],
    (4, 4): [(0, 0, 0), (0, 2, 2), (1, 0, 1), (1, 2, 3), (2, 0, 2), (2, 2, 0), (3, 0, 3),
             (3, 2, 1)],
    (4, 5): [(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3), (4, 0, 4)],
    (4, 6): [(0, 0, 0), (0, 3, 3), (1, 0, 1), (1, 3, 4), (2, 0, 2), (2, 3, 5), (3, 0, 3),
             (3, 3, 0), (4, 0, 4), (4, 3, 1), (5, 0, 5), (5, 3, 2)],
    (5, 5): [(0, 0, 0, 0), (1, 2, 3, 4), (2, 4, 1, 3), (3, 1, 4, 2), (4, 3, 2, 1)],
    (6, 2): [(0, 0, 0, 0, 0), (1, 0, 1, 0, 1)],
    (6, 3): [(0, 0, 0, 0, 0), (0, 1, 1, 2, 2), (0, 2, 2, 1, 1), (1, 0, 1, 0, 1),
             (1, 1, 2, 2, 0), (1, 2, 0, 1, 2), (2, 0, 2, 0, 2), (2, 1, 0, 2, 1),
             (2, 2, 1, 1, 0)],
    (8, 2): [(0, 0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 1, 1), (1, 0, 1, 0, 1, 0, 1),
             (1, 1, 0, 0, 1, 1, 0)],
}


class Table:
    """A weight table as plain data: f(a, b, sign) = entries[index(a, b, sign)]
    with the flat layout of `CocycleTable` (sign-major, then row-major)."""

    __slots__ = ("n", "m", "entries")

    def __init__(self, n: int, m: int, entries):
        self.n, self.m, self.entries = n, m, tuple(entries)

    def value(self, a: int, b: int, sign: int) -> int:
        n = self.n
        return self.entries[(0 if sign > 0 else n * n) + (a % n) * n + (b % n)]

    @classmethod
    def shiftable(cls, n: int, m: int, plus, minus) -> "Table":
        rows = {1: (0,) + tuple(plus), -1: (0,) + tuple(minus)}
        return cls(n, m, (rows[s][(a - b) % n] % m
                          for s in (1, -1) for a in range(n) for b in range(n)))


def shiftable_table(rng: random.Random, n: int, m: int, scale: int = 1) -> Table:
    """A random frozen shiftable cocycle for (n, m), scaled into Z_{scale*m};
    scaling keeps every cocycle condition and shiftability."""
    rows = HALVES[(n, m)]
    plus, minus = rng.choice(rows), rng.choice(rows)
    return Table.shiftable(n, m * scale, [scale * v for v in plus], [scale * v for v in minus])


def random_table(rng: random.Random, n: int, m: int) -> Table:
    """Uniform entries with at least one nonzero diagonal entry, so the table
    fails condition 0."""
    entries = [rng.randrange(m) for _ in range(2 * n * n)]
    a, block = rng.randrange(n), rng.choice((0, n * n))
    entries[block + a * n + a] = rng.randrange(1, m)
    return Table(n, m, entries)


def perturbed_table(rng: random.Random, table: Table) -> Table:
    """Add 1 to one off-diagonal entry of a cocycle: the diagonal stays zero
    and every such single-entry change breaks a later condition."""
    n = table.n
    entries = list(table.entries)
    a = rng.randrange(n)
    b = (a + rng.randrange(1, n)) % n
    idx = rng.choice((0, n * n)) + a * n + b
    entries[idx] = (entries[idx] + 1) % table.m
    return Table(n, table.m, entries)


# -- Gauss codes -------------------------------------------------------------


def jitter(rng: random.Random, crossings: int) -> int:
    """A size within 15% of a ladder rung, so neighbouring rungs' latencies
    overlap and percentiles do not sit on a gap between two sizes."""
    return max(4, round(crossings * rng.uniform(0.85, 1.15)))


def _tok(role: str, crossing: int, sign: int) -> str:
    return f"{role}{crossing}{'+' if sign > 0 else '-'}"


def join(comps) -> str:
    return " ; ".join(" ".join(c) if c else "()" for c in comps)


def split(code: str) -> list[list[str]]:
    return [[t for t in part.split() if t != "()"] for part in code.split(";")]


def _fresh(comps) -> int:
    return 1 + max((int(t[1:-1]) for c in comps for t in c), default=0)


def knot(rng: random.Random, crossings: int) -> list[list[str]]:
    """Uniformly shuffled single-component code with the given crossings."""
    comp = []
    for x in range(1, crossings + 1):
        sign = rng.choice((1, -1))
        comp += [_tok("O", x, sign), _tok("U", x, sign)]
    rng.shuffle(comp)
    return [comp]


def link(rng: random.Random, components: int, crossings: int, n: int) -> list[list[str]]:
    """A code whose every component shift is a nonzero multiple of n where
    possible, so it is colorable mod n.

    Each pair of components gets an unbalanced block of n or 2n mixed
    crossings; the rest are self-crossings and balanced mixed pairs, which
    leave the shifts alone.  Passes are then shuffled within components.
    """
    comps: list[list[str]] = [[] for _ in range(components)]
    x = 0

    def cross(over: int, under: int):
        nonlocal x
        x += 1
        sign = rng.choice((1, -1))
        comps[over].append(_tok("O", x, sign))
        comps[under].append(_tok("U", x, sign))

    for i in range(components):
        for j in range(i + 1, components):
            over, under = (i, j) if rng.random() < 0.5 else (j, i)
            for _ in range(n * rng.randint(1, 2)):
                cross(over, under)
    while x < crossings:
        i, j = rng.randrange(components), rng.randrange(components)
        cross(i, j)
        if i != j:
            cross(j, i)
    for comp in comps:
        rng.shuffle(comp)
    return comps


# -- pair edits ----------------------------------------------------------------


def _insert_pairs(comps, placements):
    """Insert token pairs at (component, index) slots of the unmodified
    code; slots in one component are filled from the back so earlier
    indices stay valid."""
    out = [list(c) for c in comps]
    for (k, idx), pair in sorted(placements, key=lambda p: p[0], reverse=True):
        out[k][idx:idx] = pair
    return out


def _slot(rng: random.Random, comps) -> tuple[int, int]:
    k = rng.randrange(len(comps))
    return k, rng.randint(0, len(comps[k]))


def kink(rng: random.Random, comps) -> list[list[str]]:
    """RI: an adjacent over/under pair of one fresh crossing."""
    x, sign = _fresh(comps), rng.choice((1, -1))
    roles = ("O", "U") if rng.random() < 0.5 else ("U", "O")
    return _insert_pairs(comps, [(_slot(rng, comps), [_tok(r, x, sign) for r in roles])])


def poke(rng: random.Random, comps) -> list[list[str]]:
    """RII: two adjacent over passes of fresh opposite-sign crossings on one
    strand and the matching under passes, parallel or antiparallel, on
    another."""
    x, sign = _fresh(comps), rng.choice((1, -1))
    over = [_tok("O", x, sign), _tok("O", x + 1, -sign)]
    under = [_tok("U", x, sign), _tok("U", x + 1, -sign)]
    if rng.random() < 0.5:
        under.reverse()
    return _insert_pairs(comps, [(_slot(rng, comps), over), (_slot(rng, comps), under)])


def planted_slide(rng: random.Random, comps):
    """RIII: plant a triple-slide site of three fresh same-sign crossings and
    return (before, after), where after swaps the pass pair on each strand.

    The site is the row (T meets TB first, M meets MB first, B meets MB
    first, all signs equal) of the library's triple-slide table; swapping
    gives its inverse row.
    """
    x, sign = _fresh(comps), rng.choice((1, -1))
    tm, tb, mb = x, x + 1, x + 2
    pairs = [
        [_tok("O", tb, sign), _tok("O", tm, sign)],   # top strand
        [_tok("O", mb, sign), _tok("U", tm, sign)],   # middle strand
        [_tok("U", mb, sign), _tok("U", tb, sign)],   # bottom strand
    ]
    slots = [_slot(rng, comps) for _ in pairs]
    before = _insert_pairs(comps, list(zip(slots, pairs)))
    after = _insert_pairs(comps, list(zip(slots, [p[::-1] for p in pairs])))
    return before, after


def edited_pair(rng: random.Random, comps, pokes: int):
    """(code1, code2): code1 carries a planted slide site; code2 takes the
    slide, one or two kinks, and `pokes` RII insertions."""
    before, after = planted_slide(rng, comps)
    for _ in range(rng.randint(1, 2)):
        after = kink(rng, after)
    for _ in range(pokes):
        after = poke(rng, after)
    return join(before), join(after)

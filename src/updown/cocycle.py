"""Weight tables f : Z_n x Z_n x {+,-} -> Z_m and their validity checks.

A table is an up-down cocycle when the diagonal vanishes (condition 0) and
the eight three-variable identities below hold (conditions 1 to 8); those
identities are exactly what makes crossing-weight sums blind to kink moves
and to the eight oriented triple-slide moves.  A cocycle is shiftable when
it only depends on the difference of its two residue arguments, which makes
the weight sum independent of the chosen coloring.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import UpDownError

SIGNS = (1, -1)


class CocycleError(UpDownError):
    pass


class BudgetExceededError(CocycleError):
    """Enumeration request whose output exceeds the hard budget."""


@dataclass(frozen=True)
class CocycleTable:
    """Total map on Z_n x Z_n x {+,-} with values in Z_m.

    Entries are stored flat, sign-major then row-major:
    index(a, b, +) = (a*n + b) and index(a, b, -) = (n*n + a*n + b).
    """

    n: int
    m: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise CocycleError("both moduli must be >= 1")
        if len(self.entries) != 2 * self.n * self.n:
            raise CocycleError(
                f"need exactly {2 * self.n * self.n} entries, got {len(self.entries)}")
        if any(not 0 <= v < self.m for v in self.entries):
            raise CocycleError("entries must be reduced residues mod m")

    def value(self, a: int, b: int, sign: int) -> int:
        n = self.n
        block = 0 if sign > 0 else n * n
        return self.entries[block + (a % n) * n + (b % n)]

    @classmethod
    def from_function(cls, n: int, m: int, fn) -> "CocycleTable":
        """Build from a callable fn(a, b, sign); values are reduced mod m."""
        return cls(n, m, tuple(
            fn(a, b, s) % m for s in SIGNS for a in range(n) for b in range(n)))

    @classmethod
    def from_differences(cls, n: int, m: int,
                         plus: tuple[int, ...], minus: tuple[int, ...]) -> "CocycleTable":
        """Shiftable table with f(a, b, eps) = h_eps((a - b) mod n)."""
        if len(plus) != n or len(minus) != n:
            raise CocycleError("difference tables must have length n")
        rows = {1: plus, -1: minus}
        return cls.from_function(n, m, lambda a, b, s: rows[s][(a - b) % n])

    @classmethod
    def zero(cls, n: int, m: int) -> "CocycleTable":
        return cls(n, m, (0,) * (2 * n * n))


@dataclass(frozen=True)
class CocycleViolation:
    """First failed condition: index 0..8 plus its least witness.

    The witness is (a, sign) for condition 0 and (a, b, c) otherwise.
    """

    condition: int
    witness: tuple[int, ...]

    def __str__(self):
        if self.condition == 0:
            a, sign = self.witness
            return f"condition=0 witness=a={a},eps={'+' if sign > 0 else '-'}"
        a, b, c = self.witness
        return f"condition={self.condition} witness=a={a},b={b},c={c}"


# Conditions 1..8.  A term (v1, o1, v2, o2, eps) stands for the entry
# f(var_{v1} + o1, var_{v2} + o2, eps) with variables indexed a=0, b=1, c=2.
_A, _B, _C = 0, 1, 2
_CONDITIONS = {
    1: (((_A, -1, _B, 0, -1), (_B, 1, _C, 1, 1), (_A, -1, _C, 2, 1)),
        ((_A, -2, _B, -1, -1), (_B, 0, _C, 2, 1), (_A, 0, _C, 1, 1))),
    2: (((_A, -1, _B, 0, -1), (_B, 0, _C, 1, -1), (_A, -2, _C, 0, -1)),
        ((_A, -2, _B, -1, -1), (_B, -1, _C, 0, -1), (_A, -1, _C, 1, -1))),
    3: (((_A, -1, _B, 1, 1), (_B, 1, _C, 1, 1), (_A, -1, _C, 1, -1)),
        ((_A, 0, _B, 0, 1), (_B, 0, _C, 2, 1), (_A, -2, _C, 0, -1))),
    4: (((_A, -1, _B, 1, 1), (_B, 0, _C, 1, -1), (_A, 0, _C, 1, 1)),
        ((_A, 0, _B, 0, 1), (_B, -1, _C, 0, -1), (_A, -1, _C, 2, 1))),
    5: (((_A, 0, _B, 1, 1), (_B, 1, _C, 2, 1), (_A, -1, _C, 1, 1)),
        ((_A, -1, _B, 0, 1), (_B, 0, _C, 1, 1), (_A, 0, _C, 2, 1))),
    6: (((_A, 0, _B, 1, 1), (_B, 0, _C, 0, -1), (_A, -2, _C, 1, -1)),
        ((_A, -1, _B, 0, 1), (_B, -1, _C, 1, -1), (_A, -1, _C, 0, -1))),
    7: (((_A, -2, _B, 0, -1), (_B, 1, _C, 2, 1), (_A, -1, _C, 0, -1)),
        ((_A, -1, _B, -1, -1), (_B, 0, _C, 1, 1), (_A, -2, _C, 1, -1))),
    8: (((_A, -2, _B, 0, -1), (_B, 0, _C, 0, -1), (_A, 0, _C, 2, 1)),
        ((_A, -1, _B, -1, -1), (_B, -1, _C, 1, -1), (_A, -1, _C, 1, 1))),
}

def _flat(n: int, block: int, a: int, b: int) -> int:
    return block + (a % n) * n + (b % n)


@lru_cache(maxsize=64)
def _condition_indices(n: int):
    """Per condition: list of ((a,b,c), lhs flat indices, rhs flat indices)."""
    nn = n * n
    out = {}
    for k, (lhs_terms, rhs_terms) in _CONDITIONS.items():
        rows = []
        for abc in itertools.product(range(n), repeat=3):
            def resolve(terms):
                return tuple(_flat(n, 0 if e > 0 else nn, abc[v1] + o1, abc[v2] + o2)
                             for v1, o1, v2, o2, e in terms)
            rows.append((abc, resolve(lhs_terms), resolve(rhs_terms)))
        out[k] = rows
    return out


@lru_cache(maxsize=1024)
def cocycle_violation(t: CocycleTable) -> CocycleViolation | None:
    """First violated condition in order 0..8, least witness first, or None."""
    n, m, e = t.n, t.m, t.entries
    nn = n * n
    for a in range(n):
        for sign in SIGNS:
            if e[_flat(n, 0 if sign > 0 else nn, a, a)] % m != 0:
                return CocycleViolation(0, (a, sign))
    for k, rows in _condition_indices(n).items():
        for abc, lhs, rhs in rows:
            if (e[lhs[0]] + e[lhs[1]] + e[lhs[2]]
                    - e[rhs[0]] - e[rhs[1]] - e[rhs[2]]) % m != 0:
                return CocycleViolation(k, abc)
    return None


def check_cocycle(t: CocycleTable) -> bool:
    """True when conditions 0 through 8 all hold."""
    return cocycle_violation(t) is None


@lru_cache(maxsize=1024)
def is_shiftable(t: CocycleTable) -> bool:
    """True when f(a+1, b+1, eps) == f(a, b, eps) everywhere."""
    n, e = t.n, t.entries
    nn = n * n
    for block in (0, nn):
        for a in range(n):
            for b in range(n):
                if e[_flat(n, block, a + 1, b + 1)] != e[block + a * n + b]:
                    return False
    return True


def check_shiftable_system(t: CocycleTable) -> bool:
    """The reduced test for shiftable cocycles; equals check_cocycle(t) and
    is_shiftable(t).

    Write f(a, b, eps) = h_eps((a - b) mod n).  For a shiftable table the
    nine conditions reduce, sign by sign, to h_eps(0) = 0 and a step-2
    difference h_eps(u) - h_eps(u - 2) that is one constant for every u.
    """
    n, m, e = t.n, t.m, t.entries
    if e[0] or e[n * n] or not is_shiftable(t):
        return False
    for block in (0, n * n):
        h = e[block:block + n * n:n]  # h(u) = f(u, 0)
        if len({(h[u] - h[(u - 2) % n]) % m for u in range(n)}) > 1:
            return False
    return True


_OUTPUT_BUDGET = 10_000_000


def _row_space(n: int, m: int) -> tuple[range, range]:
    """Step-2 differences k and odd-chain starts c of the shiftable rows.

    A row is a difference table h with h(0) = 0 and h(u) - h(u - 2) = k for
    every u.  For odd n the chain h(2j) = j*k covers Z_n and closes when
    n*k = 0 (mod m).  For even n the even chain h(2j) = j*k and the odd
    chain h(2j + 1) = c + j*k, with c free, each have length n/2 and close
    when (n/2)*k = 0 (mod m).
    """
    length = n if n % 2 else n // 2
    return range(0, m, m // math.gcd(length, m)), range(1 if n % 2 else m)


def _row(n: int, m: int, k: int, c: int) -> tuple[int, ...]:
    h = [0] * n
    for j in range(n if n % 2 else n // 2):
        h[2 * j % n] = j * k % m
        if n % 2 == 0:
            h[2 * j + 1] = (c + j * k) % m
    return tuple(h)


def enumerate_shiftable(n: int, m: int, jobs: int = 1) -> list[CocycleTable]:
    """All shiftable n-up-down cocycles into Z_m, lexicographic by their
    difference vectors (plus block first, entry for difference 1 first).

    The plus and minus rows are independent and range over the same rows
    (see _row_space), so the tables are every (plus, minus) pair of sorted
    rows, plus row major.  There are gcd(n, m)**2 tables for odd n and
    (m * gcd(n/2, m))**2 for even n.  Requests whose output exceeds 10**7
    entries raise BudgetExceededError before any table is built.  `jobs`
    is accepted for compatibility and ignored.
    """
    if n < 1 or m < 1:
        raise CocycleError("both moduli must be >= 1")
    steps, starts = _row_space(n, m)
    size = (len(steps) * len(starts)) ** 2 * 2 * n * n
    if size > _OUTPUT_BUDGET:
        raise BudgetExceededError(
            f"{size} table entries exceed the output budget of {_OUTPUT_BUDGET}")
    rows = sorted(_row(n, m, k, c) for k in steps for c in starts)
    blocks = [tuple(h[(a - b) % n] for a in range(n) for b in range(n)) for h in rows]
    return [CocycleTable(n, m, plus + minus) for plus in blocks for minus in blocks]


def _modulus(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise CocycleError(f"modulus with {len(digits)} digits is too large") from None


_ZERO_NAME = re.compile(r"zero\((\d+),(\d+)\)\Z")

BUILTIN_NAMES = ("example-f", "example-g", "zero(n,m)")


def builtin_table(name: str) -> CocycleTable:
    """Named tables: example-f and example-g over Z_4, and zero(n,m), which
    raises BudgetExceededError when its 2*n*n entries exceed 10**7."""
    if name == "example-f":
        return CocycleTable.from_differences(4, 4, (0, 2, 2, 0), (0, 1, 2, 3))
    if name == "example-g":
        # nonzero only next to the diagonal on the negative side
        return CocycleTable.from_differences(4, 4, (0, 0, 0, 0), (0, 1, 0, 1))
    m = _ZERO_NAME.match(name)
    if m:
        n = _modulus(m.group(1))
        if 2 * n * n > _OUTPUT_BUDGET:
            raise BudgetExceededError(
                f"{2 * n * n} table entries exceed the output budget of {_OUTPUT_BUDGET}")
        return CocycleTable.zero(n, _modulus(m.group(2)))
    raise CocycleError(f"unknown builtin cocycle {name!r}; known: {', '.join(BUILTIN_NAMES)}")


def parse_table(text: str) -> CocycleTable:
    """Read the table file format.

    First line "n=<n> m=<m>", then one line "<a> <b> <+|-> <value>" per
    entry; all 2*n*n entries must appear exactly once.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise CocycleError("empty cocycle file")
    header = re.match(r"n=(\d+)\s+m=(\d+)\Z", lines[0])
    if header is None:
        raise CocycleError(f"bad header line {lines[0]!r}; expected 'n=<n> m=<m>'")
    n, m = _modulus(header.group(1)), _modulus(header.group(2))
    if n < 1 or m < 1:
        raise CocycleError("both moduli must be >= 1")
    seen: dict[tuple[int, int, int], int] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4 or parts[2] not in ("+", "-"):
            raise CocycleError(f"bad entry line {ln!r}; expected '<a> <b> <+|-> <value>'")
        try:
            a, b, v = int(parts[0]), int(parts[1]), int(parts[3])
        except ValueError:
            raise CocycleError(f"bad entry line {ln!r}") from None
        if not (0 <= a < n and 0 <= b < n):
            raise CocycleError(f"entry ({a}, {b}) outside Z_{n} in line {ln!r}")
        key = (a, b, 1 if parts[2] == "+" else -1)
        if key in seen:
            raise CocycleError(f"duplicate entry for ({a}, {b}, {parts[2]})")
        seen[key] = v % m
    missing = 2 * n * n - len(seen)
    if missing:
        raise CocycleError(f"{missing} entries missing from cocycle file")
    return CocycleTable.from_function(n, m, lambda a, b, s: seen[(a, b, s)])


def format_table(t: CocycleTable) -> str:
    """Inverse of parse_table, entries sign-major and row-major."""
    lines = [f"n={t.n} m={t.m}"]
    for sign in SIGNS:
        for a in range(t.n):
            for b in range(t.n):
                lines.append(f"{a} {b} {'+' if sign > 0 else '-'} {t.value(a, b, sign)}")
    return "\n".join(lines) + "\n"

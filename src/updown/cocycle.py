"""Weight tables f : Z_n x Z_n x {+,-} -> Z_m and their validity checks.

A table is an up-down cocycle when the diagonal vanishes (condition 0) and
the eight three-variable identities below hold (conditions 1 to 8); those
identities are exactly what makes crossing-weight sums blind to kink moves
and to the eight oriented triple-slide moves.  A cocycle is shiftable when
it only depends on the difference of its two residue arguments, which makes
the weight sum independent of the chosen coloring.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

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
        _require_size(self.n, self.m)
        if len(self.entries) != 2 * self.n * self.n:
            raise CocycleError(
                f"need exactly {2 * self.n * self.n} entries, got {len(self.entries)}")
        if min(self.entries) < 0 or max(self.entries) >= self.m:
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


# Conditions 1..8.  Each side sums three entries, read at the variable
# pairs (a, b), (b, c) and (a, c) in that order; the term (o1, o2, eps) at
# the pair (x, y) stands for f(x + o1, y + o2, eps).
_CONDITIONS = {
    1: (((-1, 0, -1), (1, 1, 1), (-1, 2, 1)),
        ((-2, -1, -1), (0, 2, 1), (0, 1, 1))),
    2: (((-1, 0, -1), (0, 1, -1), (-2, 0, -1)),
        ((-2, -1, -1), (-1, 0, -1), (-1, 1, -1))),
    3: (((-1, 1, 1), (1, 1, 1), (-1, 1, -1)),
        ((0, 0, 1), (0, 2, 1), (-2, 0, -1))),
    4: (((-1, 1, 1), (0, 1, -1), (0, 1, 1)),
        ((0, 0, 1), (-1, 0, -1), (-1, 2, 1))),
    5: (((0, 1, 1), (1, 2, 1), (-1, 1, 1)),
        ((-1, 0, 1), (0, 1, 1), (0, 2, 1))),
    6: (((0, 1, 1), (0, 0, -1), (-2, 1, -1)),
        ((-1, 0, 1), (-1, 1, -1), (-1, 0, -1))),
    7: (((-2, 0, -1), (1, 2, 1), (-1, 0, -1)),
        ((-1, -1, -1), (0, 1, 1), (-2, 1, -1))),
    8: (((-2, 0, -1), (0, 0, -1), (0, 2, 1)),
        ((-1, -1, -1), (-1, 1, -1), (-1, 1, 1))),
}


_OUTPUT_BUDGET = 10_000_000


def _require_size(n: int, m: int, tables: int = 0) -> None:
    """CocycleError unless both moduli are >= 1, then BudgetExceededError
    when `tables` tables of 2*n*n entries exceed 10**7 entries.  The message
    names the budget, not the size, which may be too long for str()."""
    if n < 1 or m < 1:
        raise CocycleError("both moduli must be >= 1")
    if tables and tables * 2 * n * n > _OUTPUT_BUDGET:
        raise BudgetExceededError(f"table entries exceed the output budget of {_OUTPUT_BUDGET}")


def cocycle_violation(t: CocycleTable) -> CocycleViolation | None:
    """First violated condition in order 0..8, least witness first, or None;
    a table passing check_shiftable_system is a cocycle without a scan."""
    return None if check_shiftable_system(t) else _scan_violation(t)


def _scan_violation(t: CocycleTable) -> CocycleViolation | None:
    """cocycle_violation without the closed form: the diagonal, then the 8*n**3
    rows of conditions 1..8, or BudgetExceededError when they exceed 10**7."""
    n, m, e = t.n, t.m, t.entries
    nn = n * n
    for a in range(n):
        for sign in SIGNS:
            if e[(0 if sign > 0 else nn) + a * (n + 1)] != 0:
                return CocycleViolation(0, (a, sign))
    if 8 * n ** 3 > _OUTPUT_BUDGET:
        raise BudgetExceededError(f"condition rows exceed the output budget of {_OUTPUT_BUDGET}")
    for k, ((ab1, bc1, ac1), (ab2, bc2, ac2)) in _CONDITIONS.items():
        # a term (o1, o2, eps) at (x, y) reads (eps < 0)*nn + (x + o1)%n*n + (y + o2)%n
        for a in range(n):
            row_ab1 = (ab1[2] < 0) * nn + (a + ab1[0]) % n * n
            row_ab2 = (ab2[2] < 0) * nn + (a + ab2[0]) % n * n
            row_ac1 = (ac1[2] < 0) * nn + (a + ac1[0]) % n * n
            row_ac2 = (ac2[2] < 0) * nn + (a + ac2[0]) % n * n
            for b in range(n):
                fixed = e[row_ab1 + (b + ab1[1]) % n] - e[row_ab2 + (b + ab2[1]) % n]
                row_bc1 = (bc1[2] < 0) * nn + (b + bc1[0]) % n * n
                row_bc2 = (bc2[2] < 0) * nn + (b + bc2[0]) % n * n
                for c in range(n):
                    if (fixed + e[row_bc1 + (c + bc1[1]) % n] + e[row_ac1 + (c + ac1[1]) % n]
                            - e[row_bc2 + (c + bc2[1]) % n]
                            - e[row_ac2 + (c + ac2[1]) % n]) % m:
                        return CocycleViolation(k, (a, b, c))
    return None


def check_cocycle(t: CocycleTable) -> bool:
    """True when conditions 0 through 8 all hold."""
    return cocycle_violation(t) is None


def is_shiftable(t: CocycleTable) -> bool:
    """True when f(a+1, b+1, eps) == f(a, b, eps) everywhere."""
    n, e = t.n, t.entries
    nn = n * n
    for block in (0, nn):
        for a in range(n):
            for b in range(n):
                if e[block + (a + 1) % n * n + (b + 1) % n] != e[block + a * n + b]:
                    return False
    return True


def check_shiftable_system(t: CocycleTable) -> bool:
    """The reduced test for shiftable cocycles; equals is_shiftable(t) and
    a clean condition scan (_scan_violation(t) is None).

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


def _row(n: int, m: int, k: int, c: int) -> tuple[int, ...]:
    """The shiftable row with step-2 difference k and odd-chain start c.

    A row is a difference table h with h(0) = 0 and h(u) - h(u - 2) = k for
    every u.  For odd n the chain h(2j) = j*k covers Z_n and closes when
    n*k = 0 (mod m).  For even n the even chain h(2j) = j*k and the odd
    chain h(2j + 1) = c + j*k, with c free, each have length n/2 and close
    when (n/2)*k = 0 (mod m).
    """
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
    (see _row): gcd(length, m) steps k close a chain of that length, and c
    takes one value for odd n and m for even n.  So the tables, every
    (plus, minus) pair of sorted rows, plus row major, number gcd(n, m)**2
    for odd n and (m * gcd(n/2, m))**2 for even n.  Requests whose output
    exceeds 10**7 entries raise BudgetExceededError before any row is built.
    `jobs` is accepted for compatibility and ignored.
    """
    length, starts = (n, 1) if n % 2 else (n // 2, m)
    steps = math.gcd(length, m)
    _require_size(n, m, (steps * starts) ** 2)
    rows = sorted(_row(n, m, k, c) for k in range(0, m, m // steps) for c in range(starts))
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
    zero = _ZERO_NAME.match(name)
    if zero:
        n, m = _modulus(zero.group(1)), _modulus(zero.group(2))
        _require_size(n, m, 1)
        return CocycleTable.zero(n, m)
    raise CocycleError(f"unknown builtin cocycle {name!r}; known: {', '.join(BUILTIN_NAMES)}")


def parse_table(text: str) -> CocycleTable:
    """Read the table file format.

    First line "n=<n> m=<m>", then one line "<a> <b> <+|-> <value>" per
    entry; all 2*n*n entries must appear exactly once.  A header asking for
    more than 10**7 entries raises BudgetExceededError before any entry is read.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise CocycleError("empty cocycle file")
    header = re.match(r"n=(\d+)\s+m=(\d+)\Z", lines[0])
    if header is None:
        raise CocycleError(f"bad header line {lines[0]!r}; expected 'n=<n> m=<m>'")
    n, m = _modulus(header.group(1)), _modulus(header.group(2))
    _require_size(n, m, 1)
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

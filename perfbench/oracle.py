"""Expected outputs computed without the library.

These work on Gauss-code text and plain tables (`gen.Table`) straight from
the definitions: colors propagate along each component, a positive crossing
reads the incoming under arc and the outgoing over arc, a negative one the
outgoing under arc and the incoming over arc.  They are slow and only run
outside the timed spans.
"""

from __future__ import annotations

import itertools
import math

import gen

CERT_MAXORD = "maxord-difference"
CERT_COLCOUNT = "coloring-count-witness"
CERT_PHI = "phi-multiset-difference"
CERT_NONSELF = "nonself-crossing-count"


def passes(code: str) -> list[list[tuple[str, int, int]]]:
    """(role, crossing, sign) per pass, per component."""
    return [[(t[0], int(t[1:-1]), 1 if t[-1] == "+" else -1) for t in comp]
            for comp in gen.split(code)]


def crossings(code: str) -> int:
    return sum(len(c) for c in passes(code)) // 2


def _homes(comps) -> dict[int, set[int]]:
    homes: dict[int, set[int]] = {}
    for k, comp in enumerate(comps):
        for _, x, _ in comp:
            homes.setdefault(x, set()).add(k)
    return homes


def shifts(code: str) -> tuple[int, ...]:
    """Over minus under count of each component's non-self passes."""
    comps = passes(code)
    homes = _homes(comps)
    return tuple(sum(1 if role == "O" else -1 for role, x, _ in comp if len(homes[x]) == 2)
                 for comp in comps)


def nonself(code: str) -> int:
    return sum(1 for ks in _homes(passes(code)).values() if len(ks) == 2)


def maxord(code: str) -> int:
    g = 0
    for s in shifts(code):
        g = math.gcd(g, abs(s))
    return g


def count(code: str, n: int) -> int:
    sh = shifts(code)
    return n ** len(sh) if all(s % n == 0 for s in sh) else 0


def weight_sums(code: str, table: gen.Table) -> list[int]:
    """Weight sum of every coloring mod table.m, in no particular order."""
    n, m = table.n, table.m
    comps = passes(code)
    offsets = []
    for comp in comps:
        # color of arc p (the arc after pass p) relative to arc 0
        acc, off = 0, [0]
        for role, _, _ in comp[1:]:
            acc += 1 if role == "O" else -1
            off.append(acc)
        total = acc + ((1 if comp[0][0] == "O" else -1) if comp else 0)
        if total % n:
            return []
        offsets.append(off)
    where = {}
    for k, comp in enumerate(comps):
        for p, (role, x, sign) in enumerate(comp):
            where[(x, role)] = (k, p, sign)
    sites = []
    for x in sorted({x for x, _ in where}):
        ku, pu, sign = where[(x, "U")]
        ko, po, _ = where[(x, "O")]
        if sign > 0:
            pu -= 1
        else:
            po -= 1
        sites.append((ku, offsets[ku][pu % len(comps[ku])],
                      ko, offsets[ko][po % len(comps[ko])], sign))
    out = []
    for bases in itertools.product(range(n), repeat=len(comps)):
        out.append(sum(table.value(bases[ku] + du, bases[ko] + do, s)
                       for ku, du, ko, do, s in sites) % m)
    return out


def phi_multiset(code: str, table: gen.Table) -> tuple[int, ...]:
    return tuple(sorted(weight_sums(code, table)))


def multiset_text(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def report(code1: str, code2: str, table: gen.Table | None) -> str:
    """The rii_report line: candidates in the order maxord, non-self count,
    coloring-count witness, weight multiset; the first largest bound wins."""
    components = len(gen.split(code1))
    g1, g2 = maxord(code1), maxord(code2)
    candidates = []
    if components == 2:
        candidates.append(((abs(g1 - g2) + 1) // 2, CERT_MAXORD, f"|{g1}-{g2}|/2"))
    c1, c2 = nonself(code1), nonself(code2)
    candidates.append(((abs(c1 - c2) + 1) // 2, CERT_NONSELF, f"|{c1}-{c2}|/2"))
    if g1 != g2:
        witness = next(n for n in itertools.count(1) if (g1 % n == 0) != (g2 % n == 0))
        candidates.append((1, CERT_COLCOUNT, f"n={witness}"))
    if table is not None and components == 1:
        m1, m2 = phi_multiset(code1, table), phi_multiset(code2, table)
        if m1 != m2:
            candidates.append((1, CERT_PHI, f"{multiset_text(m1)}!={multiset_text(m2)}"))
    best = candidates[0]
    for cand in candidates[1:]:
        if cand[0] > best[0]:
            best = cand
    return "bound={} certificate={} detail={}".format(*best)


# -- tables ------------------------------------------------------------------


def search_vectors(n: int, m: int) -> list[tuple[int, ...]]:
    """Difference vectors of every shiftable (n, m) cocycle, in order."""
    rows = gen.HALVES[(n, m)]
    return [p + q for p in rows for q in rows]


def table_vector(n: int, value) -> tuple[int, ...]:
    """(plus row, minus row) of a shiftable table read through value(a, b, sign)."""
    return (tuple(value(d, 0, 1) for d in range(1, n))
            + tuple(value(d, 0, -1) for d in range(1, n)))


def first_bad_diagonal(table: gen.Table):
    """Condition-0 witness (a, sign): the least a, plus sign first."""
    for a in range(table.n):
        for sign in (1, -1):
            if table.value(a, a, sign) % table.m:
                return (a, sign)
    return None


def is_shiftable(table: gen.Table) -> bool:
    n = table.n
    return all(table.value(a + 1, b + 1, s) == table.value(a, b, s)
               for s in (1, -1) for a in range(n) for b in range(n))


def format_table(table: gen.Table) -> str:
    lines = [f"n={table.n} m={table.m}"]
    for sign in (1, -1):
        for a in range(table.n):
            for b in range(table.n):
                lines.append(f"{a} {b} {'+' if sign > 0 else '-'} {table.value(a, b, sign)}")
    return "\n".join(lines) + "\n"


def cocycle_check_line(table: gen.Table, valid: bool) -> str:
    """`cocycle-check` output for a known-valid shiftable table or for a
    table that fails condition 0."""
    if valid:
        return "ok=true shiftable=true"
    a, sign = first_bad_diagonal(table)
    return f"ok=false condition=0 witness=a={a},eps={'+' if sign > 0 else '-'}"


def connect(code1: str, code2: str, at1: int, at2: int) -> str:
    """Connected sum: code2's ids shifted past code1's, cut open after pass
    at2 and spliced in after pass at1 of code1."""
    (seq1,), (seq2,) = passes(code1), passes(code2)
    offset = max((x for _, x, _ in seq1), default=0)
    seq2 = [(r, x + offset, s) for r, x, s in seq2]
    cut = (at2 + 1) % len(seq2) if seq2 else 0
    mid = seq2[cut:] + seq2[:cut]
    spliced = seq1[:at1 + 1] + mid + seq1[at1 + 1:] if seq1 else mid
    return "code=" + " ".join(f"{r}{x}{'+' if s > 0 else '-'}" for r, x, s in spliced)

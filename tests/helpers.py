"""Shared fixtures and independent oracles used across the test suite.

The brute-force oracles here deliberately avoid the library's propagation
solver, position bookkeeping and closed-form cocycle search: colorings are
found by filtering every possible color assignment, weight sums walk the
pass sequences directly, and shiftable cocycles are found by filtering
every difference table through the nine conditions.  They are only usable
on small inputs, which is what the frozen expected values are derived
from.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

import updown as ud

# -- fixture codes ----------------------------------------------------------

UNKNOT = "()"
KINK = "O1+ U1+"
DELTA = "O1- O2+ U1- U2+"
TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
VIRTUAL_TWO = "O1+ O2+ U1+ U2+"

# stand-in with maxord 6 and 8 non-self crossings
F6 = "O1+ O2+ O3+ O4+ O5+ O6+ O7+ U8+ ; U1+ U2+ U3+ U4+ U5+ U6+ U7+ O8+"

KNOT_CODES = [
    UNKNOT,
    KINK,
    "O1- U1-",
    "U1+ O1+",
    DELTA,
    TREFOIL,
    VIRTUAL_TWO,
    "O1- U2- O2- U1-",
    "O1+ U1+ O2+ U2+",
    "O1+ O2- U1+ U2- O3+ U3+",
]


def tangle(i: int) -> str:
    """Two-component code with 2i positive crossings, one strand over at all
    of them; component shifts are +2i and -2i."""
    if i == 0:
        return "() ; ()"
    over = " ".join(f"O{j}+" for j in range(1, 2 * i + 1))
    under = " ".join(f"U{j}+" for j in range(1, 2 * i + 1))
    return f"{over} ; {under}"


def random_knot_code(rng: random.Random, max_crossings: int = 12) -> str:
    """Uniformly shuffled single-component signed Gauss code."""
    c = rng.randint(1, max_crossings)
    signs = {x: rng.choice("+-") for x in range(1, c + 1)}
    passes = [f"O{x}{signs[x]}" for x in range(1, c + 1)]
    passes += [f"U{x}{signs[x]}" for x in range(1, c + 1)]
    rng.shuffle(passes)
    return " ".join(passes)


# -- independent oracles ----------------------------------------------------


def brute_colorings(d: ud.Diagram, spec: ud.ColoringSpec) -> list[dict]:
    """Every total color assignment satisfying the crossing conditions,
    found by exhaustive filtering; maps SemiArcId -> residue."""
    arcs = ud.semi_arcs(d)
    n = spec.modulus
    found = []
    for values in itertools.product(range(n), repeat=len(arcs)):
        colors = dict(zip(arcs, values))
        if _brute_check(d, colors, spec):
            found.append(colors)
    return found


def _brute_check(d: ud.Diagram, colors: dict, spec: ud.ColoringSpec) -> bool:
    for k, comp in enumerate(d.components):
        size = len(comp)
        for p, pas in enumerate(comp):
            w = spec.pos_shift if pas.sign > 0 else spec.neg_shift
            delta = w if pas.role == ud.OVER else -w
            incoming = colors[ud.SemiArcId(k, (p - 1) % size)]
            outgoing = colors[ud.SemiArcId(k, p)]
            if (outgoing - incoming - delta) % spec.modulus != 0:
                return False
    return True


def brute_weight_sum(d: ud.Diagram, colors: dict, table: ud.CocycleTable) -> int:
    """Weight sum computed by scanning the pass sequences directly."""
    locations = {}
    for k, comp in enumerate(d.components):
        for p, pas in enumerate(comp):
            locations[(pas.crossing, pas.role)] = (k, p)
    total = 0
    for x in d.crossing_ids():
        ko, po = locations[(x, ud.OVER)]
        ku, pu = locations[(x, ud.UNDER)]
        size_o = len(d.components[ko])
        size_u = len(d.components[ku])
        if d.crossing_sign(x) > 0:
            a = colors[ud.SemiArcId(ku, (pu - 1) % size_u)]
            b = colors[ud.SemiArcId(ko, po)]
            total += table.value(a, b, 1)
        else:
            a = colors[ud.SemiArcId(ku, pu)]
            b = colors[ud.SemiArcId(ko, (po - 1) % size_o)]
            total += table.value(a, b, -1)
    return total % table.m


def brute_phi(d: ud.Diagram, table: ud.CocycleTable) -> tuple[int, ...]:
    spec = ud.ColoringSpec(table.n)
    return tuple(sorted(
        brute_weight_sum(d, colors, table) for colors in brute_colorings(d, spec)))


def brute_shiftable(n: int, m: int) -> list[ud.CocycleTable]:
    """Every shiftable cocycle into Z_m in enumerate_shiftable's order,
    found by filtering all m**(2(n-1)) difference vectors with h(0) = 0
    through check_cocycle, in lexicographic order (plus row first)."""
    found = []
    for vec in itertools.product(range(m), repeat=2 * (n - 1)):
        t = ud.CocycleTable.from_differences(
            n, m, (0,) + vec[:n - 1], (0,) + vec[n - 1:])
        if ud.check_cocycle(t):
            found.append(t)
    return found


def fast_phi(d: ud.Diagram, table: ud.CocycleTable) -> tuple[int, ...]:
    """Vectorized weight multiset for single-component diagrams.

    Used by the long random-walk suites where the library implementation
    would dominate the runtime; agreement with phi_multiset is asserted
    separately wherever this helper is used.
    """
    assert d.num_components == 1
    n, m = table.n, table.m
    comp = d.components[0]
    size = len(comp)
    if size == 0:
        return (0,) * n
    deltas = np.zeros(size, dtype=np.int64)
    for p, pas in enumerate(comp):
        deltas[p] = 1 if pas.role == ud.OVER else -1
    # color of arc p relative to arc 0 is the delta total of passes 1..p
    prefix = np.concatenate(([0], np.cumsum(deltas[1:])))

    over_at, under_at = {}, {}
    for p, pas in enumerate(comp):
        (over_at if pas.role == ud.OVER else under_at)[pas.crossing] = p
    under_args, over_args, blocks = [], [], []
    for x in d.crossing_ids():
        po, pu = over_at[x], under_at[x]
        if d.crossing_sign(x) > 0:
            under_args.append((pu - 1) % size)
            over_args.append(po)
            blocks.append(0)
        else:
            under_args.append(pu)
            over_args.append((po - 1) % size)
            blocks.append(1)
    tab = np.asarray(table.entries, dtype=np.int64).reshape(2, n, n)
    shifts = np.arange(n, dtype=np.int64)[:, None]
    a = (prefix[under_args][None, :] + shifts) % n
    b = (prefix[over_args][None, :] + shifts) % n
    sums = tab[np.asarray(blocks)[None, :], a, b].sum(axis=1) % m
    return tuple(sorted(int(v) for v in sums))

"""Shared fixtures and independent oracles used across the test suite.

The brute-force oracles here deliberately avoid the library's propagation
solver, position bookkeeping, closed-form cocycle search and move scan:
colorings are found by filtering every possible color assignment, weight
sums walk the pass sequences directly, shiftable cocycles are found by
filtering every difference table through the nine conditions, condition
violations by evaluating every identity at every point, local move
sites by trying every pair or triple of adjacent pass pairs, add moves
by placing the inserted passes while walking the unmodified components,
the first validation error by checking the diagram rules in order,
Gauss-code text by walking its tokens one at a time, and table text by
keying each entry by its (a, b, sign) triple.
They are only usable on small inputs, which is what the frozen expected
values are derived from.
"""

from __future__ import annotations

import collections
import itertools
import random
import re

import updown as ud
from updown.cocycle import _CONDITIONS, _scan_violation
from updown.moves import _RIII_ROWS

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


def random_link_code(rng: random.Random, components: int, crossings: int, n: int) -> str:
    """Seeded code of at least `crossings` crossings, every pass at a random
    position: self-crossings, non-self crossings in pairs that swap over and
    under, and now and then n crossings with one component over another.
    Every component shift is a multiple of n, so all n**components
    colorings mod n exist."""
    comps = [[] for _ in range(components)]
    x = 0
    while x < crossings:
        j, k = rng.randrange(components), rng.randrange(components)
        if j == k:
            blocks = [(j, k)]
        elif rng.random() < 0.1:
            blocks = [(j, k)] * n
        else:
            blocks = [(j, k), (k, j)]
        for over, under in blocks:
            x += 1
            sign = rng.choice("+-")
            for comp, role in ((over, "O"), (under, "U")):
                comps[comp].insert(rng.randint(0, len(comps[comp])), f"{role}{x}{sign}")
    return " ; ".join(" ".join(comp) or "()" for comp in comps)


def riii_strands(row) -> tuple[list, list, list]:
    """The T, M and B pass pairs of a triple-slide configuration key
    (T first, M first, B first, sign TM, TB, MB); crossings TM=1, TB=2,
    MB=3.  Keys outside the legal rows give look-alike sites."""
    t_first, m_first, b_first, s_tm, s_tb, s_mb = row
    top = [ud.Pass(1, ud.OVER, s_tm), ud.Pass(2, ud.OVER, s_tb)]
    if t_first == "TB":
        top.reverse()
    mid = [ud.Pass(1, ud.UNDER, s_tm), ud.Pass(3, ud.OVER, s_mb)]
    if m_first == "MB":
        mid.reverse()
    low = [ud.Pass(2, ud.UNDER, s_tb), ud.Pass(3, ud.UNDER, s_mb)]
    if b_first == "MB":
        low.reverse()
    return top, mid, low


def planted_code(rng: random.Random, components: int) -> str:
    """Seeded code with planted triple-slide look-alikes (legal or not),
    pokes, kinks and loose crossings, spread over the given number of
    components at random positions."""
    comps = [[] for _ in range(components)]

    def fresh():
        # every block places both passes of its crossings before the next
        return sum(map(len, comps)) // 2 + 1

    def put(passes):
        comp = rng.choice(comps)
        at = rng.randint(0, len(comp))
        comp[at:at] = passes

    for _ in range(rng.randint(0, 2)):
        row = (rng.choice(("TM", "TB")), rng.choice(("TM", "MB")), rng.choice(("TB", "MB")),
               rng.choice((1, -1)), rng.choice((1, -1)), rng.choice((1, -1)))
        offset = fresh() - 1
        for strand in riii_strands(row):
            put([ud.Pass(p.crossing + offset, p.role, p.sign) for p in strand])
    for _ in range(rng.randint(0, 2)):
        x = fresh()
        y = x + 1
        s = rng.choice((1, -1))
        under = [ud.Pass(x, ud.UNDER, s), ud.Pass(y, ud.UNDER, -s)]
        put([ud.Pass(x, ud.OVER, s), ud.Pass(y, ud.OVER, -s)])
        put(under if rng.random() < 0.5 else under[::-1])
    for _ in range(rng.randint(0, 2)):
        x = fresh()
        s = rng.choice((1, -1))
        kink = [ud.Pass(x, ud.OVER, s), ud.Pass(x, ud.UNDER, s)]
        put(kink if rng.random() < 0.5 else kink[::-1])
    for _ in range(rng.randint(0, 3)):
        x = fresh()
        s = rng.choice((1, -1))
        put([ud.Pass(x, ud.OVER, s)])
        put([ud.Pass(x, ud.UNDER, s)])
    return ud.serialize(ud.Diagram(tuple(tuple(comp) for comp in comps)))


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
    """Weight sum computed by scanning the pass sequences directly: each
    crossing is found at its over pass, which also gives its sign."""
    locations = {}
    for k, comp in enumerate(d.components):
        for p, pas in enumerate(comp):
            locations[(pas.crossing, pas.role)] = (k, p)
    total = 0
    for (x, role), (ko, po) in locations.items():
        if role != ud.OVER:
            continue
        ku, pu = locations[(x, ud.UNDER)]
        size_o = len(d.components[ko])
        size_u = len(d.components[ku])
        if d.components[ko][po].sign > 0:
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
    through the condition scan (not the closed form), in lexicographic
    order (plus row first)."""
    found = []
    for vec in itertools.product(range(m), repeat=2 * (n - 1)):
        t = ud.CocycleTable.from_differences(
            n, m, (0,) + vec[:n - 1], (0,) + vec[n - 1:])
        if _scan_violation(t) is None:
            found.append(t)
    return found


def brute_violation(t: ud.CocycleTable) -> ud.CocycleViolation | None:
    """First failed cocycle condition and its least witness, or None.

    Condition 0 is tried at every (a, sign), then each identity of the
    condition table at every (a, b, c) in lexicographic order, reading
    every entry with table.value; only the condition table is taken from
    the library.
    """
    for a in range(t.n):
        for sign in (1, -1):
            if t.value(a, a, sign) != 0:
                return ud.CocycleViolation(0, (a, sign))
    for k in sorted(_CONDITIONS):
        for a, b, c in itertools.product(range(t.n), repeat=3):
            lhs, rhs = (sum(t.value(x + o1, y + o2, eps)
                            for (x, y), (o1, o2, eps) in zip(((a, b), (b, c), (a, c)), side))
                        for side in _CONDITIONS[k])
            if (lhs - rhs) % t.m:
                return ud.CocycleViolation(k, (a, b, c))
    return None


def brute_local_moves(d: ud.Diagram, kind: str) -> list[ud.MoveDescriptor]:
    """Every RI-remove, RII-remove or RIII descriptor of d, in
    enumerate_moves order, read off the definitions in the moves module
    docstring.

    A site is an adjacent pass pair (p, p+1) of a component with at least
    two passes.  RI-remove tries every site, RII-remove every ordered pair
    of sites and RIII every ordered triple; only the row table itself is
    taken from the library.
    """
    over, under = ud.OVER, ud.UNDER
    sites = [((k, p), comp[p], comp[(p + 1) % len(comp)])
             for k, comp in enumerate(d.components) if len(comp) >= 2
             for p in range(len(comp))]

    def sign(pas):
        return "+" if pas.sign > 0 else "-"

    found = []
    if kind == ud.RI_REMOVE:
        for site, a, b in sites:
            if a.crossing == b.crossing:
                found.append(ud.MoveDescriptor(kind, f"{a.role}{b.role}{sign(a)}", (site,)))
    elif kind == ud.RII_REMOVE:
        for (s1, a, b), (s2, c, e) in itertools.product(sites, repeat=2):
            if ((a.role, b.role, c.role, e.role) != (over, over, under, under)
                    or a.crossing == b.crossing or a.sign == b.sign):
                continue
            for pattern, order in (("parallel", (a, b)), ("antiparallel", (b, a))):
                if (c.crossing, e.crossing) == (order[0].crossing, order[1].crossing):
                    found.append(ud.MoveDescriptor(kind, f"{pattern}{sign(a)}", (s1, s2)))
    elif kind == ud.RIII:
        def with_roles(*roles):
            return [s for s in sites if (s[1].role, s[2].role) in roles]

        triples = itertools.product(with_roles((over, over)),
                                    with_roles((over, under), (under, over)),
                                    with_roles((under, under)))
        for (st, t1, t2), (sm, m1, m2), (sb, b1, b2) in triples:
            m_under, m_over = (m1, m2) if m1.role == under else (m2, m1)
            tm, mb = m_under.crossing, m_over.crossing
            t_crossings = [t1.crossing, t2.crossing]
            if tm not in t_crossings or t1.crossing == t2.crossing:
                continue
            tb = t_crossings[1 - t_crossings.index(tm)]
            if mb in (tm, tb) or {b1.crossing, b2.crossing} != {tb, mb}:
                continue
            t_tm, t_tb = (t1, t2) if t1.crossing == tm else (t2, t1)
            key = ("TM" if t1.crossing == tm else "TB",
                   "TM" if m1.role == under else "MB",
                   "TB" if b1.crossing == tb else "MB",
                   t_tm.sign, t_tb.sign, m_over.sign)
            if key in _RIII_ROWS:
                found.append(ud.MoveDescriptor(kind, _RIII_ROWS[key], (st, sm, sb)))
    else:
        raise ValueError(f"not a local move kind: {kind!r}")
    return sorted(found, key=lambda mv: (mv.kind, mv.sites, str(mv.variant)))


def brute_add(d: ud.Diagram, mv: ud.MoveDescriptor) -> ud.Diagram:
    """The RI-add or RII-add rewrite of d, read off the definitions in the
    moves module docstring.

    Fresh crossings are numbered from one past the largest id, and a site
    (k, p) is the arc after pass p of component k.  A kink "OU+" puts an
    over then an under pass of one positive crossing on its arc.  A poke
    "parallel+" or "antiparallel+" puts the over passes of a positive then a
    negative crossing on its first arc; the second arc meets the under
    passes in the same order (parallel) or the reverse one (antiparallel).
    Every insertion is placed while walking the unmodified components.
    """
    x = max((pas.crossing for comp in d.components for pas in comp), default=0) + 1
    sign = 1 if mv.variant.endswith("+") else -1
    if mv.kind == ud.RI_ADD:
        layouts = [[ud.Pass(x, role, sign) for role in mv.variant[:2]]]
    else:
        y = x + 1
        over = [ud.Pass(x, ud.OVER, sign), ud.Pass(y, ud.OVER, -sign)]
        under = [ud.Pass(x, ud.UNDER, sign), ud.Pass(y, ud.UNDER, -sign)]
        if mv.variant.startswith("antiparallel"):
            under.reverse()
        layouts = [over, under]
    after = dict(zip(mv.sites, layouts))
    comps = []
    for k, comp in enumerate(d.components):
        # an empty component is the one arc (k, 0)
        walked = [] if comp else list(after.get((k, 0), []))
        for p, pas in enumerate(comp):
            walked += [pas] + after.get((k, p), [])
        comps.append(tuple(walked))
    return ud.Diagram(tuple(comps))


def reference_validation_error(components) -> str | None:
    """The message of the first ValidationError that Diagram(components)
    raises, or None for a valid diagram, read off the rules.

    The passes are checked in component-major order, each in turn for an id
    in 1..10**4000 - 1, an id that is an int (bool included), a sign of +1
    or -1, the role "O" or "U", a second pass of its crossing in the same
    role, and a sign that differs from the crossing's earlier pass.  Then
    the crossings, in order of first appearance, are checked for a missing
    over or under pass.
    """
    if not components:
        return "a diagram needs at least one component"
    seen: dict[int, list] = {}
    for comp in components:
        for pas in comp:
            x = pas.crossing
            if not 1 <= x <= 10**4000 - 1:
                return "crossing ids must be >= 1 and below 10**4000"
            if not isinstance(x, int):
                return f"crossing {x}: id must be an integer"
            if pas.sign not in (1, -1):
                return f"crossing {x}: sign must be +1 or -1"
            if pas.role not in ("O", "U"):
                return f"crossing {x}: unknown role {pas.role!r}"
            earlier = seen.setdefault(x, [])
            if any(e.role == pas.role for e in earlier):
                return f"crossing {x} has two {'over' if pas.role == 'O' else 'under'} passes"
            if any(e.sign != pas.sign for e in earlier):
                return f"crossing {x} has mismatched signs"
            earlier.append(pas)
    for x, found in seen.items():
        roles = [e.role for e in found]
        if "O" not in roles:
            return f"crossing {x} has no over pass"
        if "U" not in roles:
            return f"crossing {x} has no under pass"
    return None


def reference_maps(components) -> tuple[dict, dict]:
    """The crossing -> (component, position) maps of a valid diagram's over
    and under passes, read straight off its components."""
    return tuple({pas.crossing: (k, p) for k, comp in enumerate(components)
                  for p, pas in enumerate(comp) if pas.role == role} for role in ("O", "U"))


_REF_PASS_RE = re.compile(r"([OU])([0-9]+)([+-])\Z")
_REF_ID_LIMIT = 10**4000
_REF_TOKEN_RE = re.compile(r"\S+")


def reference_parse(text: str) -> ud.Diagram:
    """ud.parse as a token walk: each whitespace-delimited token is matched
    on its own, grouped into components at ';', and the passes are handed
    to ud.Diagram for validation.  It raises the same ParseError messages at
    the same positions, first grammar violation first."""
    tokens = [(m.group(0), m.start()) for m in _REF_TOKEN_RE.finditer(text)]
    if not tokens:
        raise ud.ParseError("empty input; a crossing-free component is written ()", 0)
    groups: list[list[tuple[str, int]]] = [[]]
    last_sep_pos = 0
    for tok, pos in tokens:
        if tok == ";":
            if not groups[-1]:
                raise ud.ParseError("empty component before ';'", pos)
            groups.append([])
            last_sep_pos = pos
        else:
            groups[-1].append((tok, pos))
    if not groups[-1]:
        raise ud.ParseError("empty component after ';'", last_sep_pos)

    components = []
    for group in groups:
        if any(tok == "()" for tok, _ in group):
            if len(group) != 1:
                bad = next(pos for tok, pos in group if tok == "()")
                raise ud.ParseError("'()' cannot be mixed with passes", bad)
            components.append(())
            continue
        passes = []
        for tok, pos in group:
            m = _REF_PASS_RE.match(tok)
            if m is None:
                raise ud.ParseError(f"bad pass token {tok!r}", pos)
            try:
                crossing = int(m.group(2))
            except ValueError:  # more digits than int() converts
                crossing = _REF_ID_LIMIT
            if not 0 < crossing < _REF_ID_LIMIT:
                raise ud.ParseError("crossing ids must be >= 1 and below 10**4000", pos)
            passes.append(ud.Pass(crossing, m.group(1), 1 if m.group(3) == "+" else -1))
        components.append(tuple(passes))
    return ud.Diagram(tuple(components))


_REF_HEADER_RE = re.compile(r"n=(\d+)\s+m=(\d+)\Z")


def _reference_modulus(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ud.CocycleError(f"modulus with {len(digits)} digits is too large") from None


def reference_parse_table(text: str) -> ud.CocycleTable:
    """ud.parse_table as it read tables before entries were keyed by their
    flat index: each entry is keyed by its (a, b, sign) triple and the table
    is rebuilt through CocycleTable.from_function.  It raises the same
    CocycleError and BudgetExceededError messages in the same order."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ud.CocycleError("empty cocycle file")
    header = _REF_HEADER_RE.match(lines[0])
    if header is None:
        raise ud.CocycleError(f"bad header line {lines[0]!r}; expected 'n=<n> m=<m>'")
    n, m = _reference_modulus(header.group(1)), _reference_modulus(header.group(2))
    if n < 1 or m < 1:
        raise ud.CocycleError("both moduli must be >= 1")
    if 2 * n * n > 10_000_000:
        raise ud.BudgetExceededError("table entries exceed the output budget of 10000000")
    seen: dict[tuple[int, int, int], int] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4 or parts[2] not in ("+", "-"):
            raise ud.CocycleError(f"bad entry line {ln!r}; expected '<a> <b> <+|-> <value>'")
        try:
            a, b, v = int(parts[0]), int(parts[1]), int(parts[3])
        except ValueError:
            raise ud.CocycleError(f"bad entry line {ln!r}") from None
        if not (0 <= a < n and 0 <= b < n):
            raise ud.CocycleError(f"entry ({a}, {b}) outside Z_{n} in line {ln!r}")
        key = (a, b, 1 if parts[2] == "+" else -1)
        if key in seen:
            raise ud.CocycleError(f"duplicate entry for ({a}, {b}, {parts[2]})")
        seen[key] = v % m
    missing = 2 * n * n - len(seen)
    if missing:
        raise ud.CocycleError(f"{missing} entries missing from cocycle file")
    return ud.CocycleTable.from_function(n, m, lambda a, b, s: seen[(a, b, s)])


def fast_phi(d: ud.Diagram, table: ud.CocycleTable) -> tuple[int, ...]:
    """Weight multiset of a single-component diagram, read off its passes
    and table.entries alone.

    One walk records each semi-arc's color, up to one shift shared by all
    semi-arcs, and the positions of each crossing's over and under pass.
    Crossings are then counted by (sign block, under color, over color), and
    each of the n shifts reads one table entry per class.  Used by the long
    random-walk suites, where phi_multiset would dominate the runtime;
    agreement with phi_multiset is asserted wherever this helper is used.
    """
    assert d.num_components == 1
    n, m, entries = table.n, table.m, table.entries
    comp = d.components[0]
    color, colors, over_at, under_at = 0, [], {}, {}
    for p, pas in enumerate(comp):
        # semi-arc p follows pass p, one color up after an over pass, one down after an under
        color += 1 if pas.role == ud.OVER else -1
        colors.append(color % n)
        (over_at if pas.role == ud.OVER else under_at)[pas.crossing] = p
    classes = collections.Counter()
    for x, po in over_at.items():
        pu = under_at[x]
        if comp[po].sign > 0:
            classes[0, colors[pu - 1], colors[po]] += 1
        else:
            classes[n * n, colors[pu], colors[po - 1]] += 1
    return tuple(sorted(
        sum(count * entries[block + (a + s) % n * n + (b + s) % n]
            for (block, a, b), count in classes.items()) % m
        for s in range(n)))

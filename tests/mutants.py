"""Textual mutants of the library, each of which some test must kill.

Each entry is (file, old, new, test files, reason): `file` is relative to
src/, `old` must occur in it exactly once and is replaced by `new`, and
running `pytest -x` on the test files (relative to the repository root)
against the mutated copy must fail.  test_mutants.py applies them one at a
time to a copy of src/; run it with `pytest -m slow tests/test_mutants.py`.
A mutant that no test kills either shows a missing test or, when it is
equivalent to the original, code that can be deleted.
"""

COCYCLE = "updown/cocycle.py"
COLORING = "updown/coloring.py"
DIAGRAM = "updown/diagram.py"
INVARIANT = "updown/invariant.py"
MOVES = "updown/moves.py"

MUTANTS = [
    # parse_table: one mutant per check
    (COCYCLE, "        if not (0 <= a < n and 0 <= b < n):\n", "        if False:\n",
     ["tests/test_cocycle.py"], "parse_table without its range check"),
    (COCYCLE, "        if key in seen:\n", "        if False:\n",
     ["tests/test_cocycle.py"], "parse_table without its duplicate check"),
    (COCYCLE, "    if len(seen) < 2 * n * n:\n", "    if False:\n",
     ["tests/test_cocycle.py"], "parse_table without its missing-entry count"),
    (COCYCLE, 'key = (parts[2] == "-")', 'key = (parts[2] == "+")',
     ["tests/test_cocycle.py"], "parse_table reading + entries into the - block"),
    (COCYCLE, "seen[key] = v % m", "seen[key] = v",
     ["tests/test_cocycle.py"], "parse_table keeping values unreduced"),
    # moves
    (MOVES, "if k_under2 == k_under and (start + 1)", "if (start + 1)",
     ["tests/test_moves.py"], "RII-remove without its same-component test"),
    # the shared-neighbour check before both over-pair tests: one mutant per clause
    (MOVES, "if not slide and b.crossing not in near_a:", "if not slide:",
     ["tests/test_moves.py"], "the over-pair check without b's own crossing"),
    (MOVES, "slide = ring_b[p_b - 1].crossing in near_a or ", "slide = ",
     ["tests/test_moves.py"], "the over-pair check without the pass before b's under pass"),
    (MOVES, " or ring_b[(p_b + 1) % len(ring_b)].crossing in near_a\n", "\n",
     ["tests/test_moves.py"], "the over-pair check without the pass after b's under pass"),
    (MOVES, '("TB", "MB", "MB", -1, -1, -1): 2,', '("TB", "MB", "MB", -1, -1, -1): 3,',
     ["tests/test_moves.py"], "one _RIII_ROWS variant changed"),
    (MOVES, "        touched.update(pas.crossing for pas in passes)\n", "",
     ["tests/test_moves.py"], "_rescan skipping an edit's new passes"),
    (MOVES, "if low[p_mb].crossing != mb or low[p_mb].role != UNDER:", "if low[p_mb].crossing != mb:",
     ["tests/test_moves.py"], "RIII taking MB's over pass for its B strand pass"),
    (MOVES, "hand_over=current is not d)", "hand_over=True)",
     ["tests/test_moves.py"], "the first walk step taking the start diagram's maps"),
    # the carried local list, in the maps' coordinates
    (MOVES, "    if any(k not in rows for k, _, _, _ in edits):\n", "    if False:\n",
     ["tests/test_moves.py"], "_rescan carrying sites past a component indexed anew"),
    (MOVES, "if mv.sites[0] not in first and broken.isdisjoint(mv.sites)]",
     "if (first | broken).isdisjoint(mv.sites)]",
     ["tests/test_moves.py"], "_rescan dropping a descriptor with any site rescanned, not its first"),
    (MOVES, "        labels = vars(current).get(\"_labels\", {})  # before the hand-over: new's build edits them\n"
     "        new = current._rewritten(edits, hand_over=current is not d)  # steps are the walk's own\n",
     "        new = current._rewritten(edits, hand_over=current is not d)  # steps are the walk's own\n"
     "        labels = vars(current).get(\"_labels\", {})  # before the hand-over: new's build edits them\n",
     ["tests/test_moves.py"], "random_walk reading a step's labels after it handed them over"),
    (MOVES, "return _sited(mv, self.rows, False) if self.rows else mv", "return mv",
     ["tests/test_moves.py"], "the drawn local move keeping its label sites"),
    (MOVES, "(_sited(mv, self.rows, True) if self.rows else mv", "(mv",
     ["tests/test_moves.py"], "a full scan of a labelled diagram keeping position sites"),
    (MOVES, "for mv in index.local] if index.rows else", "for mv in index.local] if False else",
     ["tests/test_moves.py"], "enumerate_moves listing a labelled diagram's label sites"),
    # invariants, colorings and diagrams
    (INVARIANT, "(ku, rows[ku][pu - 1] % n, ko, rows[ko][po] % n, 1)", "(ku, rows[ku][pu] % n, ko, rows[ko][po] % n, 1)",
     ["tests/test_invariant.py"], "_weight_sites reading the wrong under arc"),
    (INVARIANT, "(ku, rows[ku][pu] % n, ko, rows[ko][po - 1] % n, -1)", "(ku, rows[ku][pu] % n, ko, rows[ko][po] % n, -1)",
     ["tests/test_invariant.py"], "_weight_sites reading the wrong over arc at a negative crossing"),
    (INVARIANT, "(ku, rows[ku][pu] % n, ko, rows[ko][po - 1] % n, -1)",
     "(ku, rows[ku][pu - 1] % n, ko, rows[ko][po - 1] % n, -1)",
     ["tests/test_invariant.py"], "_weight_sites reading the wrong under arc at a negative crossing"),
    # the weight-sum kernel's pricing
    (INVARIANT, "block = 0 if s > 0 else n * n", "block = 0",
     ["tests/test_invariant.py"], "_weight_sums pricing negative crossings from the plus block"),
    (INVARIANT, "(count, lines[block, 1], o, u)", "(count, lines[block, 1], u, o)",
     ["tests/test_invariant.py"], "_weight_sums rotating the columns the wrong way when the under component is later"),
    (INVARIANT, "entries[block + (b + x) % n * n + (b + y) % n]", "entries[block + (b + x) % n * n + y]",
     ["tests/test_invariant.py"], "_weight_sums reading a self pair off a row, not the diagonal"),
    (INVARIANT, "(count, lines[block, n], u, o) if", "(count, lines[block, 1], o, u) if",
     ["tests/test_invariant.py"], "_weight_sums reading columns when the under component is earlier"),
    (INVARIANT, "RiiBound((abs(g1 - g2) + 1) // 2, CERT_MAXORD",
     "RiiBound(abs(g1 - g2) // 2, CERT_MAXORD",
     ["tests/test_invariant.py"], "the maxord bound rounding down"),
    (COLORING, "        return 0\n    count = _power_within", "        return 1\n    count = _power_within",
     ["tests/test_coloring.py"], "count_colorings returning 1 for an uncolorable diagram"),
    (DIAGRAM, "and isinstance(x, int) and isinstance(u.crossing, int)", "and isinstance(x, int)",
     ["tests/test_diagram.py"], "Diagram without its under-id int check"),
    # a rewrite result's map build from its parent's, by order labels
    (DIAGRAM, "                    indexed.add(k)\n", "                    pass\n",
     ["tests/test_moves.py"], "no relabel when no label fits"),
    (DIAGRAM, "for pas, label in zip(passes, new):", "for pas, label in zip(passes if start == stop else (), new):",
     ["tests/test_moves.py"], "a swap not rewriting its moved passes' entries"),
    (DIAGRAM, "        for k, start, stop, _ in edits:\n", "        for k, start, stop, _ in [e for e in edits if e[3]]:\n",
     ["tests/test_moves.py"], "a removal leaving its entries in the maps"),
    (DIAGRAM, "at if row is None else (k, bisect_left(row, label))", "at if row is None else (k, label)",
     ["tests/test_moves.py"], "the resolver returning the label, not the position"),
    (DIAGRAM, "        if not owned:  # every row too", "        if True:  # every row too",
     ["tests/test_moves.py"], "a walk step still copying its parent's maps and label lists"),
    (DIAGRAM, "rows[k] = labels.get(k) or list(range(len(components[k])))",
     "rows[k] = list(labels.get(k) or range(len(components[k])))",
     ["tests/test_moves.py"], "a walk step still copying the label lists it edits"),
    (DIAGRAM, "labels = {k: list(row) for k, row in labels.items()}", "labels = dict(labels)",
     ["tests/test_moves.py"], "a first walk step sharing its start's unedited label lists"),
    (DIAGRAM, '        if "_over_at" in own:\n', '        if "_over_at" in own and not hand_over:\n',
     ["tests/test_moves.py"], "a walk step indexing its components anew instead of taking the maps"),
]

"""The set-up every user of the package pays, as a standalone process.

Imports `updown` and its CLI module, then makes one small call into each
layer so that lazily built tables and caches exist.  Run as a script it
prints "ready" when done; the benchmark times that from process spawn.
"""

from __future__ import annotations

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"


def warm_up():
    import updown as ud
    import updown.cli  # noqa: F401  (the CLI's own imports are part of set-up)

    d = ud.parse(TREFOIL)
    ud.serialize(d)
    ud.random_walk(d, 2, ud.MOVE_KINDS, 0)
    ud.enumerate_moves(d, {ud.RIII})
    ud.count_colorings(d, ud.ColoringSpec(3))
    ud.maxord(d)
    table = ud.builtin_table("example-f")
    ud.phi_shift(d, table)
    ud.rii_report(d, d, table)
    ud.enumerate_shiftable(2, 2)
    return ud


if __name__ == "__main__":
    warm_up()
    print("ready", flush=True)

"""Command-line front end.

Every subcommand prints a machine-readable result line (no timestamps, no
nondeterminism) so outputs can be golden-tested.  Diagrams are given inline
as Gauss codes or as @path to read a file; cocycles are builtin names or
@path to a table file.

Exit codes: 0 on success, 1 on domain errors (bad diagrams, bad tables,
inapplicable operations), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cocycle as _cocycle
from . import coloring as _coloring
from . import diagram as _diagram
from . import invariant as _invariant
from . import moves as _moves
from .errors import UpDownError


def _read_arg(arg: str) -> str:
    if arg.startswith("@"):
        try:
            return Path(arg[1:]).read_text()
        except UnicodeDecodeError as exc:
            raise UpDownError(f"{exc}: {arg[1:]!r}") from None
    return arg


def _load_diagram(arg: str) -> _diagram.Diagram:
    return _diagram.parse(_read_arg(arg))


def _load_cocycle(arg: str) -> _cocycle.CocycleTable:
    if arg.startswith("@"):
        return _cocycle.parse_table(_read_arg(arg))
    return _cocycle.builtin_table(arg)


def _print_coloring(index: int, c: _coloring.Coloring):
    print(f"coloring={index}")
    for k, comp in enumerate(c.colors):
        for p, v in enumerate(comp):
            print(f"component={k} arc={p} color={v}")


def _cmd_validate(args) -> int:
    d = _load_diagram(args.diagram)
    print(f"valid components={d.num_components} crossings={d.num_crossings}")
    return 0


def _cmd_count(args) -> int:
    d = _load_diagram(args.diagram)
    spec = _coloring.ColoringSpec(args.n, args.pos, args.neg)
    found = _coloring.solve_colorings(d, spec) if args.dump_colorings else []
    print(f"count={_coloring.count_colorings(d, spec)}")
    for i, c in enumerate(found):
        _print_coloring(i, c)
    return 0


def _cmd_maxord(args) -> int:
    d = _load_diagram(args.diagram)
    print(f"maxord={_coloring.maxord(d)}")
    return 0


def _cmd_phi(args) -> int:
    d = _load_diagram(args.diagram)
    table = _load_cocycle(args.cocycle)
    print(f"phi_shift={_invariant.phi_shift(d, table)}")
    return 0


def _cmd_phi_multiset(args) -> int:
    d = _load_diagram(args.diagram)
    table = _load_cocycle(args.cocycle)
    ms = _invariant.phi_multiset(d, table, allow_links=args.unchecked_links)
    print(f"phi_multiset={ms}")
    return 0


def _cmd_compare(args) -> int:
    d1 = _load_diagram(args.diagram1)
    d2 = _load_diagram(args.diagram2)
    table = _load_cocycle(args.cocycle) if args.cocycle else None
    print(_invariant.rii_report(d1, d2, table))
    return 0


def _cmd_cocycle_check(args) -> int:
    table = _load_cocycle(args.cocycle)
    # cocycle_violation's two steps, so that the shiftable test runs once: a
    # cocycle is shiftable exactly when it passes the closed form
    shiftable = _cocycle.check_shiftable_system(table)
    violation = None if shiftable else _cocycle._scan_violation(table)
    if violation is None:
        print(f"ok=true shiftable={'true' if shiftable else 'false'}")
    else:
        print(f"ok=false {violation}")
    return 0


def _cmd_cocycle_search(args) -> int:
    tables = _cocycle.enumerate_shiftable(args.n, args.m, jobs=args.parallel)
    print(f"count={len(tables)}")
    if args.dump:
        for i, t in enumerate(tables):
            print(f"table={i}")
            print(_cocycle.format_table(t), end="")
    return 0


def _cmd_walk(args) -> int:
    d = _load_diagram(args.diagram)
    kinds = frozenset(args.kinds.split(","))
    trajectory = _moves.random_walk(d, args.steps, kinds, args.seed)
    for i, (mv, current) in enumerate(trajectory, start=1):
        if mv is None:
            print(f"step={i} move=stall code={_diagram.serialize(current)}")
        else:
            sites = ",".join(f"{k}:{p}" for k, p in mv.sites)
            print(f"step={i} move={mv.kind}/{mv.variant}@{sites} "
                  f"code={_diagram.serialize(current)}")
    return 0


def _cmd_connect(args) -> int:
    d1 = _load_diagram(args.diagram1)
    d2 = _load_diagram(args.diagram2)
    out = _diagram.connected_sum(
        d1, d2, _diagram.SemiArcId(0, args.at1), _diagram.SemiArcId(0, args.at2))
    print(f"code={_diagram.serialize(out)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="updown",
        description="Up-down coloring and cocycle invariants of virtual-link "
                    "diagrams given as signed Gauss codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def diagram_cmd(name, help_text, fn):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("diagram", help="Gauss code, or @path to a file holding one")
        p.set_defaults(fn=fn)
        return p

    diagram_cmd("validate", "parse and validate a diagram", _cmd_validate)

    def spec_cmd(name, help_text):
        p = diagram_cmd(name, help_text, _cmd_count)
        p.add_argument("--n", type=int, required=True, help="color modulus")
        p.add_argument("--pos", type=int, default=1, help="shift at positive crossings")
        p.add_argument("--neg", type=int, default=1, help="shift at negative crossings")
        return p

    p = spec_cmd("count", "number of colorings for an explicit modulus")
    p.add_argument("--dump-colorings", action="store_true",
                   help="also list every coloring")
    p = spec_cmd("colorings", "list all colorings for an explicit modulus")
    p.set_defaults(dump_colorings=True)

    diagram_cmd("maxord", "largest modulus admitting a coloring (0 = all)", _cmd_maxord)

    p = diagram_cmd("phi", "scalar weight sum under a shiftable cocycle", _cmd_phi)
    p.add_argument("--cocycle", required=True, help="builtin name or @path")

    p = diagram_cmd("phi-multiset", "weight-sum multiset over all colorings",
                    _cmd_phi_multiset)
    p.add_argument("--cocycle", required=True, help="builtin name or @path")
    p.add_argument("--unchecked-links", action="store_true",
                   help="allow multi-component diagrams; the multiset is only "
                        "proven move-stable for knot diagrams")

    p = sub.add_parser("compare", help="best RII lower bound between two diagrams")
    p.add_argument("diagram1")
    p.add_argument("diagram2")
    p.add_argument("--cocycle", help="builtin name or @path, enables the multiset test")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("cocycle-check", help="check the cocycle conditions of a table")
    p.add_argument("cocycle", help="builtin name or @path")
    p.set_defaults(fn=_cmd_cocycle_check)

    p = sub.add_parser("cocycle-search", help="enumerate all shiftable cocycles")
    p.add_argument("--n", type=int, required=True, help="source modulus")
    p.add_argument("--m", type=int, required=True, help="coefficient modulus")
    p.add_argument("--parallel", type=int, default=1,
                   help="accepted for compatibility and ignored")
    p.add_argument("--dump", action="store_true", help="also print every table")
    p.set_defaults(fn=_cmd_cocycle_search)

    p = diagram_cmd("walk", "seeded random rewrite walk", _cmd_walk)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kinds", default="RI-add,RI-remove,RII-add,RII-remove,RIII",
                   help="comma-separated move kinds")

    p = sub.add_parser("connect", help="connected sum of two knot diagrams")
    p.add_argument("diagram1")
    p.add_argument("diagram2")
    p.add_argument("--at1", type=int, default=0, help="splice arc in the first diagram")
    p.add_argument("--at2", type=int, default=0, help="splice arc in the second diagram")
    p.set_defaults(fn=_cmd_connect)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UpDownError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

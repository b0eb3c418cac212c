"""Command-line front door.

Subcommands:
  count <quantity>   exact counts via oracle, polynomial algorithm or a
                     named reduction pipeline
  gen <kind> <params...>   emit a builtin pattern in the graph text format
  verify <suite>     run a named identity-verification suite (or "all")

Counts are printed as decimal strings (arbitrary precision); ``--format
json`` emits {"quantity", "value", "algo", "params"} with the value as a
string, never a native number.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import eihom, holant, linegraphs, oracles, reductions, verify
from .config import CapExceeded
from .graphs import (Graph, bfs_layers, bits, make_pattern, parse_graph,
                     serialize_graph)

# quantity -> {algo: count(pattern, host, args)}; the functions are looked up
# at call time, so a patched module attribute is what runs.
ROUTES = {
    "hom": {"oracle": lambda p, h, a: oracles.count_hom(p, h)},
    "emb": {"oracle": lambda p, h, a: oracles.count_emb(p, h),
            "poly": lambda p, h, a: eihom.count_emb_small_vc(p, h, bound=a.bound)},
    "edginj": {"oracle": lambda p, h, a: oracles.count_edginj(p, h),
               "poly": lambda p, h, a: eihom.count_edginj_poly(p, h, bound=a.bound)},
    "wedginj": {"oracle": lambda p, h, a: oracles.count_edginj_weighted(p, h)},
    "matchings": {
        "oracle": lambda p, h, a: oracles.count_matchings(h, a.k),
        "pipeline:wedges": lambda p, h, a: reductions.count_matchings_via_wedges(
            h, _pick_left(h), a.k),
        "pipeline:apex": lambda p, h, a: reductions.count_matchings_via_apex(
            h, _bipartition(h)[0], a.k),
        "pipeline:star": lambda p, h, a: reductions.count_matchings_via_star(
            h, _pick_left(h), a.k)},
    "colmatch": {
        "oracle": lambda p, h, a: oracles.count_matchings(h, h.k, colorful=True),
        "pipeline:subdiv": lambda p, h, a: holant.colmatch_via_subdivision(h),
        "pipeline:uncolored": lambda p, h, a: holant.colmatch_via_uncolored(h)},
    "perfmatch": {
        "oracle": lambda p, h, a: oracles.count_perfect_matchings(h),
        "poly": lambda p, h, a: linegraphs.count_perfmatch_3regular_line(h),
        "pipeline:line": lambda p, h, a: linegraphs.perfmatch_via_line_reduction(h, a.ell)},
    "odd-edge-sets": {
        "oracle": lambda p, h, a: oracles.count_odd_edge_sets_enum(h),
        "poly": lambda p, h, a: linegraphs.count_odd_edge_sets(h)},
    "ec-cycles": {
        "oracle": lambda p, h, a: oracles.count_edge_disjoint(h, a.k, "cycle"),
        "pipeline:paths": lambda p, h, a: reductions.ec_cycles_via_paths(h, a.k)},
    "ec-paths": {"oracle": lambda p, h, a: oracles.count_edge_disjoint(h, a.k, "path")},
}
QUANTITIES = tuple(ROUTES)

# the inputs each quantity requires, in the order they are checked
NEEDS = {q: ("--pattern", "--host") for q in ("hom", "emb", "edginj", "wedginj")}
NEEDS.update({q: ("--host", "--k") for q in ("matchings", "ec-cycles", "ec-paths")})
NEEDS.update({q: ("--host",) for q in ("colmatch", "perfmatch", "odd-edge-sets")})


def _load_graph(spec: str) -> Graph:
    if spec.startswith("builtin:"):
        parts = spec[len("builtin:"):].split(",")
        return make_pattern(parts[0], *[int(p) for p in parts[1:]])
    with open(spec, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _bipartition(g: Graph):
    """2-color the host by the parity of BFS layers; returns (sideA, sideB)
    or raises."""
    sides = [0, 0]
    rest = (1 << g.n) - 1
    while rest:
        for d, layer in enumerate(bfs_layers(g.masks, rest & -rest)):
            sides[d % 2] |= layer
            rest ^= layer
    for side in sides:
        if any(g.masks[v] & side for v in bits(side)):
            raise ValueError("host is not bipartite")
    a, b = (list(bits(side)) for side in sides)
    return a, b


def _pick_left(g: Graph):
    """Choose the pipeline's left side: the other side must have degree <= 2
    and left pairs may share at most one neighbor."""
    a, b = _bipartition(g)
    for left in (a, b):
        try:
            reductions.build_Gr(g, left, 0)
            return left
        except ValueError:
            continue
    raise ValueError("no side of the host satisfies the pipeline preconditions")


def _run_count(args) -> int:
    q = args.quantity
    algo = args.algo
    routes = ROUTES[q]
    if algo not in routes:
        raise SystemExit2(f"unknown algo {algo!r} for {q}; "
                          f"choose from {', '.join(routes)}")
    host = _load_graph(args.host) if args.host else None
    pattern = _load_graph(args.pattern) if args.pattern else None
    given = {"--pattern": pattern, "--host": host, "--k": args.k}
    for flag in NEEDS[q]:
        if given[flag] is None:
            raise SystemExit2(f"count {q} requires {flag}")
    if q == "colmatch" and host.color is None:
        raise SystemExit2("colmatch needs an edge-colored host")
    value = routes[algo](pattern, host, args)

    if args.format == "json":
        params = {"k": args.k, "pattern": args.pattern, "host": args.host,
                  "ell": args.ell}
        print(json.dumps({"quantity": q, "value": str(value), "algo": algo,
                          "params": {k: v for k, v in params.items() if v is not None}}))
    else:
        print(value)
    return 0


class SystemExit2(Exception):
    """Usage errors that should exit with status 2."""


def _run_gen(args) -> int:
    g = make_pattern(args.kind, *args.params)
    sys.stdout.write(serialize_graph(g))
    return 0


def _run_verify(args) -> int:
    try:
        results = verify.run_suites([args.suite])
    except KeyError:
        raise SystemExit2(f"unknown suite {args.suite!r}; "
                          f"choose from {', '.join(verify.SUITES)} or all")
    failed = 0
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eicount",
        description="Exact graph-pattern counting: oracles, a polynomial "
                    "edge-injective homomorphism counter, and executable "
                    "reduction pipelines.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="compute one counting quantity")
    c.add_argument("quantity", choices=QUANTITIES)
    c.add_argument("--pattern", help="graph file or builtin:<kind>,<params>")
    c.add_argument("--host", help="graph file or builtin:<kind>,<params>")
    c.add_argument("--k", type=int, help="solution size where applicable")
    c.add_argument("--algo", default="oracle",
                   help="oracle | poly | pipeline:<name> (default oracle)")
    c.add_argument("--ell", type=int, default=2,
                   help="collar length for pipeline:line (default 2)")
    c.add_argument("--bound", type=int, default=3,
                   help="cover bound for emb and edginj --algo poly (default 3)")
    c.add_argument("--format", choices=("text", "json"), default="text")

    g = sub.add_parser("gen", help="emit a builtin pattern graph")
    g.add_argument("kind")
    g.add_argument("params", nargs="*", type=int)

    v = sub.add_parser("verify", help="run an identity-verification suite")
    v.add_argument("suite", help=f"{', '.join(verify.SUITES)}, or all")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "count":
            return _run_count(args)
        if args.command == "gen":
            return _run_gen(args)
        return _run_verify(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, linegraphs.DecompositionError,
            linegraphs.DigitOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door.

Subcommands:
  count <quantity>   exact counts: a pattern query (``graphs.QUERIES``)
                     through ``oracles.count_query`` by each counter of its
                     map kind, or a named route (the matching enumeration,
                     a reduction pipeline)
  gen <kind> <params...>   emit a builtin pattern in the graph text format
  verify <suite>     run a named identity-verification suite (or "all")

Counts are printed as decimal strings (arbitrary precision); ``--format
json`` emits {"quantity", "value", "algo", "params"} with the value as a
string, never a native number.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cap
exceeded.

Importing this module loads only ``config`` and ``graphs``.  The modules a
route runs (``oracles``, ``eihom``, ``linegraphs``, ``reductions``,
``holant``, ``verify``) load through the package on first use, so each
command compiles only what it needs.
"""

from __future__ import annotations

import argparse
import sys

import eicount as pkg
from .config import CapExceeded, meter
from .graphs import (COUNTERS, QUERIES, Graph, make_pattern, parse_graph,
                     serialize_graph)


def _query(q, algo):
    return lambda p, h, a: pkg.oracles.count_query(q, h, a.k, p, algo)


# quantity -> {algo: count(pattern, host, args)}: each query under each
# counter of its map kind, then the named routes (the matching enumeration
# is matchings' oracle).  Each function is looked up through the package at
# call time, which loads its module on first use, and a patched module
# attribute is what runs.
ROUTES = {q: {algo: _query(q, algo) for algo, kinds in COUNTERS.items()
              if kind in kinds} for q, (_, kind, _) in QUERIES.items()}
for q, named in {
    "matchings": {
        "oracle": lambda p, h, a: pkg.oracles.count_matchings(h, a.k),
        "pipeline:wedges": lambda p, h, a: pkg.reductions.count_matchings_via_wedges(h, a.k),
        "pipeline:apex": lambda p, h, a: pkg.reductions.count_matchings_via_apex(h, a.k),
        "pipeline:star": lambda p, h, a: pkg.reductions.count_matchings_via_star(h, a.k)},
    "ec-cycles": {
        "pipeline:paths": lambda p, h, a: pkg.reductions.ec_cycles_via_paths(h, a.k)},
    "cycles": {
        "pipeline:gadget": lambda p, h, a: pkg.reductions.count_simple_cycles_via_gadget(h, a.k)},
    "colmatch": {
        "oracle": lambda p, h, a: pkg.oracles.count_matchings(h, h.k, colorful=True),
        "pipeline:subdiv": lambda p, h, a: pkg.holant.colmatch_via_subdivision(h),
        "pipeline:uncolored": lambda p, h, a: pkg.holant.colmatch_via_uncolored(h)},
    "perfmatch": {
        "oracle": lambda p, h, a: pkg.oracles.count_perfect_matchings(h),
        "poly": lambda p, h, a: pkg.linegraphs.count_perfmatch_3regular_line(h),
        "pipeline:line": lambda p, h, a: pkg.linegraphs.perfmatch_via_line_reduction(h, a.ell)},
    "odd-edge-sets": {
        "oracle": lambda p, h, a: pkg.oracles.count_odd_edge_sets_enum(h),
        "poly": lambda p, h, a: pkg.linegraphs.count_odd_edge_sets(h)},
}.items():
    ROUTES.setdefault(q, {}).update(named)
QUANTITIES = tuple(ROUTES)


def _load_graph(spec: str) -> Graph:
    if spec.startswith("builtin:"):
        parts = spec[len("builtin:"):].split(",")
        return make_pattern(parts[0], *[int(p) for p in parts[1:]])
    with open(spec, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _run_count(args) -> int:
    q = args.quantity
    algo = args.algo
    routes = ROUTES[q]
    if algo not in routes:
        raise SystemExit2(f"unknown algo {algo!r} for {q}; "
                          f"choose from {', '.join(routes)}")
    host = _load_graph(args.host) if args.host else None
    pattern = _load_graph(args.pattern) if args.pattern else None
    needs = {"--host": host}
    if q in QUERIES:  # the pattern is given, or built from --k
        needs = ({"--pattern": pattern, **needs} if QUERIES[q][0] is None
                 else {**needs, "--k": args.k})
    for flag, value in needs.items():
        if value is None:
            raise SystemExit2(f"count {q} requires {flag}")
    if q == "colmatch" and host.color is None:
        raise SystemExit2("colmatch needs an edge-colored host")
    value = routes[algo](pattern, host, args)

    if args.format == "json":
        import json
        params = {"k": args.k, "pattern": args.pattern, "host": args.host,
                  "ell": args.ell if algo == "pipeline:line" else None}
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
        results = pkg.verify.run_suites([args.suite])
    except KeyError:
        raise SystemExit2(f"unknown suite {args.suite!r}; "
                          f"choose from {', '.join(pkg.verify.SUITES)} or all")
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
    c.set_defaults(run=_run_count)
    c.add_argument("quantity", choices=QUANTITIES)
    c.add_argument("--pattern", help="graph file or builtin:<kind>,<params>")
    c.add_argument("--host", help="graph file or builtin:<kind>,<params>")
    c.add_argument("--k", type=int, help="solution size where applicable")
    c.add_argument("--algo", default="oracle",
                   help="oracle | poly | pipeline:<name> (default oracle)")
    c.add_argument("--ell", type=int, default=2,
                   help="collar length for pipeline:line (default 2)")
    c.add_argument("--format", choices=("text", "json"), default="text")

    g = sub.add_parser("gen", help="emit a builtin pattern graph")
    g.set_defaults(run=_run_gen)
    g.add_argument("kind")
    g.add_argument("params", nargs="*", type=int)

    v = sub.add_parser("verify", help="run an identity-verification suite")
    v.set_defaults(run=_run_verify)
    v.add_argument("suite", help="suite name, or all (an unknown name lists "
                                 "the suites)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        with meter():  # the command's searches share one budget per cap
            return args.run(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: seeded inputs, operations and answer checks.

Every workload is a closed loop with one client: an operation starts when
the previous one has finished.  Operations come in passes; a run executes
whole passes so that every run measures the same mix of operations.

* ``edginj-poly``: in-process ``eihom.count_edginj_poly`` queries.
* ``verify-all``: one ``python -m eicount.cli verify all`` per operation.
* ``cli-large-host``: ``python -m eicount.cli count ...`` on generated files.

An operation is either a Python call (``Op.call``) or a CLI argv
(``Op.argv``), which the untraced run executes in a child interpreter and
the traced run through ``eicount.cli.main`` in-process.  Expected answers
are computed by independent references outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from eicount import cli, eihom, oracles
from eicount.graphs import (Graph, make_pattern, serialize_graph, subdivide,
                            line_graph, vertex_cover_number)

ROOT = Path(__file__).resolve().parents[1]
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    label: str
    call: object = None          # zero-argument callable returning the count
    argv: list = None            # eicount CLI arguments
    key: object = None           # identifies the query for the reference
    expected: object = None      # filled in outside the timed region
    extra: dict = field(default_factory=dict)


def cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli_subprocess(argv):
    """One ``python -m eicount.cli`` child; returns (exit code, stdout,
    the child's peak RSS in KiB).  The child is reaped with ``os.wait4`` so
    that its own ``ru_maxrss`` is read, not the maximum over every child."""
    proc = subprocess.Popen([sys.executable, "-m", "eicount.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, env=cli_env(), cwd=ROOT)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


def run_cli_inprocess(argv):
    """The same command through ``eicount.cli.main``; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# graph generators (all driven by one random.Random)

# Random hosts per size; pass i queries instance i mod INSTANCES, so that a
# run averages over several graphs of each size, not over one seed's graph.
INSTANCES = 3

def gnm(rng, n, m):
    """Uniform graph with exactly m edges: the edge count, which sets the
    cost of every query, does not vary with the seed."""
    return Graph(n, rng.sample(list(itertools.combinations(range(n), 2)), m))


def random_cubic(rng, n):
    """Connected simple cubic graph: a random Hamiltonian cycle plus a
    random perfect matching that avoids the cycle's edges."""
    order = list(range(n))
    rng.shuffle(order)
    cycle = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    while True:
        rng.shuffle(order)
        matching = {tuple(sorted(order[i:i + 2])) for i in range(0, n, 2)}
        if not matching & cycle:
            return Graph(n, cycle | matching)


def random_connected(rng, n, m):
    """Connected graph with n vertices and m edges: a random recursive tree
    plus uniformly chosen extra edges."""
    es = {(rng.randrange(v), v) for v in range(1, n)}
    while len(es) < m:
        u, v = sorted(rng.sample(range(n), 2))
        es.add((u, v))
    return Graph(n, es)


# ---------------------------------------------------------------------------
# edginj-poly

HOST_SIZES = (10, 15, 20)
HOST_DENSITY = 0.25
NAMED_PATTERNS = [
    ("P3", ("P", 3)),
    ("C4", ("C", 4)),
    ("C5", ("C", 5)),
    ("C6", ("C", 6)),
    ("2wedges", ("kP2", 2)),
    ("W2", ("W", 2)),
    ("K23", ("Kab", 2, 3)),
]
# One-off random patterns per pass as (vertices, weak vertex-cover number),
# queried on the smallest host.  Fixing the mix of shapes fixes the share of
# cheap and expensive patterns, which would otherwise move the median from
# seed to seed; on larger hosts a single 6-vertex pattern of cover 3 can
# cost as much as the rest of the pass.
RANDOM_PATTERNS = [(5, 2), (5, 3), (6, 2), (6, 3)] * 6


def isolated_pattern():
    """C_4 plus an isolated vertex and an isolated edge, so that
    ``reduce_isolated`` has work to do."""
    return Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (5, 6)])


def random_pattern(rng, k, wvc):
    """Random pattern on k vertices with weak vertex-cover number wvc."""
    while True:
        es = [e for e in itertools.combinations(range(k), 2) if rng.random() < 0.35]
        h = Graph(k, es)
        if vertex_cover_number(h, weak=True) == wvc:
            return h


class EdginjPoly:
    name = "edginj-poly"
    subprocess_ops = False

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = random.Random(f"edginj-poly:{seed}:hosts")
        # INSTANCES hosts of each size; pass i queries the i mod INSTANCES-th
        self.hosts = [{n: gnm(rng, n, round(HOST_DENSITY * n * (n - 1) / 2))
                       for n in HOST_SIZES} for _ in range(INSTANCES)]
        self.named = [(label, make_pattern(kind, *params))
                      for label, (kind, *params) in NAMED_PATTERNS]
        self.named.append(("C4+K1+K2", isolated_pattern()))
        self._passes = [self._make_pass(0)]

    def _make_pass(self, i):
        rng = random.Random(f"edginj-poly:{self.seed}:pass{i}")
        queries = [(label, h, n) for label, h in self.named for n in HOST_SIZES]
        queries += [(f"rand{i}.{j}", random_pattern(rng, k, w), HOST_SIZES[0])
                    for j, (k, w) in enumerate(RANDOM_PATTERNS)]
        return [self._op(label, h, n, i % INSTANCES) for label, h, n in queries]

    def _op(self, label, h, n, instance=0):
        g = self.hosts[instance][n]
        return Op(f"{label}@n{n}",
                  call=lambda: eihom.count_edginj_poly(h, g),
                  key=(h.n, h.edges, n, instance), extra={"pattern": h, "host": g})

    def pass_ops(self, i):
        while len(self._passes) <= i:
            self._passes.append(self._make_pass(len(self._passes)))
        return self._passes[i]

    def inputs(self):
        """The generated graphs of the first two passes, serialized."""
        out = {f"host{n}-{k}.g": serialize_graph(g)
               for k, hosts in enumerate(self.hosts) for n, g in hosts.items()}
        for i in range(2):
            for op in self.pass_ops(i):
                if op.label.startswith("rand"):
                    out[f"{op.label}.g"] = serialize_graph(op.extra["pattern"])
        return out

    def reference(self, op):
        return oracles.count_edginj(op.extra["pattern"], op.extra["host"])

    def check(self, op, output):
        return output == op.expected


# ---------------------------------------------------------------------------
# verify-all

VERIFY_EXPECTED = "180/180 checks passed"


class VerifyAll:
    name = "verify-all"
    subprocess_ops = True

    def __init__(self, seed, workdir):
        self._op = Op("verify all", argv=["verify", "all"], key="verify all",
                      expected=VERIFY_EXPECTED)

    def pass_ops(self, i):
        return [self._op]

    def inputs(self):
        return {}

    def reference(self, op):
        return VERIFY_EXPECTED

    def check(self, op, output):
        code, stdout = output
        lines = stdout.strip().splitlines()
        return code == 0 and bool(lines) and lines[-1] == op.expected


# ---------------------------------------------------------------------------
# cli-large-host

CUBIC_SIZES = (50, 100)              # perfmatch hosts have 3x these vertices
ODD_HOST_SIZES = ((700, 2800), (1400, 5600))
SMALL_QUERIES = [
    ("hom P2 K3", ["count", "hom", "--pattern", "builtin:P,2", "--host", "builtin:K,3"],
     lambda: oracles.count_hom(make_pattern("P", 2), make_pattern("K", 3))),
    ("edginj P2 K4", ["count", "edginj", "--pattern", "builtin:P,2", "--host", "builtin:K,4"],
     lambda: oracles.count_edginj(make_pattern("P", 2), make_pattern("K", 4))),
    ("perfmatch line K4", ["count", "perfmatch", "--algo", "pipeline:line", "--host", "builtin:K,4"],
     lambda: oracles.count_perfect_matchings(make_pattern("K", 4))),
    ("perfmatch poly K4", ["count", "perfmatch", "--algo", "poly", "--host", "builtin:K,4"],
     lambda: oracles.count_perfect_matchings(make_pattern("K", 4))),
    ("matchings C6 k2", ["count", "matchings", "--host", "builtin:C,6", "--k", "2"],
     lambda: oracles.count_matchings(make_pattern("C", 6), 2)),
    ("odd-edge-sets K4", ["count", "odd-edge-sets", "--algo", "poly", "--host", "builtin:K,4"],
     lambda: oracles.count_odd_edge_sets_enum(make_pattern("K", 4))),
]


def odd_edge_sets_closed_form(g):
    """2^(m - n + c), or 0 when some component has odd order."""
    comps = g.components()
    if any(len(c) % 2 for c in comps):
        return 0
    return 2 ** (g.m - g.n + len(comps))


class CliLargeHost:
    name = "cli-large-host"
    subprocess_ops = True

    def __init__(self, seed, workdir):
        rng = random.Random(f"cli-large-host:{seed}")
        self.files = {}
        self._large = [[] for _ in range(INSTANCES)]
        for k, ops in enumerate(self._large):
            for n in CUBIC_SIZES:
                cubic = random_cubic(rng, n)
                host = line_graph(subdivide(cubic, 1))
                fname = f"perfmatch-cubic{n}-{k}.g"
                self.files[fname] = serialize_graph(host)
                # perfect matchings of L(S(G)) = odd edge-sets of the cubic G
                ops.append(Op(f"perfmatch poly {host.n}v #{k}",
                              argv=["count", "perfmatch", "--algo", "poly",
                                    "--host", str(workdir / fname)],
                              key=fname, extra={"closed_form": cubic}))
            for n, m in ODD_HOST_SIZES:
                g = random_connected(rng, n, m)
                fname = f"odd-edge-sets-{n}v{m}e-{k}.g"
                self.files[fname] = serialize_graph(g)
                ops.append(Op(f"odd-edge-sets poly {m}e #{k}",
                              argv=["count", "odd-edge-sets", "--algo", "poly",
                                    "--host", str(workdir / fname)],
                              key=fname, extra={"closed_form": g}))
        self._small = [Op(label, argv=argv, key=label, extra={"oracle": ref})
                       for label, argv, ref in SMALL_QUERIES]
        for fname, text in self.files.items():
            (workdir / fname).write_text(text, encoding="utf-8")

    def pass_ops(self, i):
        return self._large[i % INSTANCES] + self._small

    def inputs(self):
        return dict(self.files)

    def reference(self, op):
        if "closed_form" in op.extra:
            return odd_edge_sets_closed_form(op.extra["closed_form"])
        return op.extra["oracle"]()

    def check(self, op, output):
        code, stdout = output
        return code == 0 and stdout.strip() == str(op.expected)


WORKLOADS = {w.name: w for w in (EdginjPoly, VerifyAll, CliLargeHost)}

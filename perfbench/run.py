#!/usr/bin/env python3
"""Benchmark for eicount: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload edginj-poly --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
times are rescaled to a reference machine speed (see ``perfbench/speed.py``).
``--trace 1`` runs one warm-up pass, then whole passes untraced for a third
of ``--seconds``, then the same passes with spans around every public
eicount function (CLI commands then run in-process through
``eicount.cli.main``), and reports the per-layer metrics.  Every answer is
checked against an independent reference outside the timed region.  The
last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``.  The full result, with the run's
metadata, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "perfbench" / "results"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def add_paths():
    """Make this checkout's src/ and the benchmark package importable."""
    src = ROOT / "src"
    if not (src / "eicount" / "__init__.py").is_file():
        fail(f"no eicount sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]


def load_package(clock):
    """Import eicount (the package and every module, through eicount.cli)
    from this checkout's src/ SETUP_REPEATS times, each time after dropping
    it from ``sys.modules``, then the benchmark modules.  Returns eicount,
    the benchmark modules and the median import time (wall, rescaled).
    The first import also loads the standard-library modules eicount uses;
    the median is the time of eicount's own modules."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "eicount"]:
            del sys.modules[name]
        start = clock.now()
        importlib.import_module("eicount.cli")
        times.append(clock.elapsed(start))
    import eicount
    from perfbench import trace, workloads
    src = ROOT / "src"
    if Path(eicount.__file__).resolve().parent != (src / "eicount").resolve():
        fail(f"eicount was imported from {eicount.__file__}, not {src}")
    return eicount, trace, workloads, [statistics.median(x) for x in zip(*times)]


class Clock:
    """Times a region in wall seconds and, with a running probe, in
    seconds at the reference speed."""

    def __init__(self, probe=None):
        self.probe = probe

    def now(self):
        return time.perf_counter(), self.probe.busy_s if self.probe else 0.0

    def elapsed(self, start):
        """(wall seconds, rescaled seconds) since ``start = self.now()``."""
        t0, b0 = start
        t1, b1 = self.now()
        if self.probe is None:
            return t1 - t0, t1 - t0
        return t1 - t0, self.probe.rescale(t0, t1, b1 - b0)


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def quantile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def tail_latency(latencies):
    """Highest of p90/p99 with at least ten samples beyond it, or None."""
    best = None
    for label, q in (("p90", 0.9), ("p99", 0.99)):
        value = quantile(latencies, q)
        if sum(x > value for x in latencies) >= 10:
            best = (label, value)
    return best


def build_workload(workloads, name, seed, tmp, clock):
    """Generate the workload's inputs and files SETUP_REPEATS times, each
    time into a fresh directory; returns the last workload and the median
    rescaled build time (references excluded)."""
    times = []
    for i in range(SETUP_REPEATS):
        workdir = tmp / f"setup{i}"
        workdir.mkdir()
        start = clock.now()
        workload = workloads.WORKLOADS[name](seed, workdir)
        workload.pass_ops(0)
        times.append(clock.elapsed(start)[1])
    return workload, statistics.median(times)


def measure_cli_import(workloads):
    code = ("import time; t = time.perf_counter(); import eicount.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                             env=workloads.cli_env(), capture_output=True,
                             text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


class Runner:
    """Executes operations, keeps their outputs and latencies (wall time,
    and rescaled time in ``scaled`` when the clock has a probe)."""

    def __init__(self, workload, workloads, inprocess, clock=None):
        self.workload = workload
        self.clock = clock or Clock()
        self.scaled = []
        self.child_rss_kb = 0   # largest peak RSS of an operation's child
        if not workload.subprocess_ops:
            self.execute_op = lambda op: op.call()
        elif inprocess:
            self.execute_op = lambda op: workloads.run_cli_inprocess(op.argv)
        else:
            def execute_op(op):
                code, stdout, rss_kb = workloads.run_cli_subprocess(op.argv)
                self.child_rss_kb = max(self.child_rss_kb, rss_kb)
                return code, stdout
            self.execute_op = execute_op
        self.records = []   # (op, output, error, latency)

    def run_pass(self, ops):
        for op in ops:
            start = self.clock.now()
            try:
                output, error = self.execute_op(op), None
            except Exception as exc:  # a failed operation is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            wall, scaled = self.clock.elapsed(start)
            self.records.append((op, output, error, wall))
            self.scaled.append(scaled)

    def run_until(self, seconds, passes=None):
        """Whole passes until ``seconds`` of operation time (or exactly
        ``passes`` passes); returns the number of passes run."""
        i = 0
        while (passes is None and self.wall_s() < seconds) or \
                (passes is not None and i < passes):
            self.run_pass(self.workload.pass_ops(i))
            i += 1
        return i

    def wall_s(self):
        return sum(r[3] for r in self.records)


def check_answers(workload, records):
    """Fill in references (once per distinct query) and count failures."""
    refs = {}
    failures = []
    for op, output, error, _ in records:
        if op.key not in refs:
            refs[op.key] = workload.reference(op)
        op.expected = refs[op.key]
        if error is not None or not workload.check(op, output):
            failures.append({"op": op.label, "error": error,
                             "output": str(output)[-200:],
                             "expected": str(op.expected)})
    return failures


def end_to_end(runner, setup_s):
    """The end-to-end metrics over every execution of the run, from the
    rescaled latencies.  Peak RSS is this process's plus that of the largest
    operation child; it is read before the references are computed."""
    lat = runner.scaled
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "peak_rss_mb": (own_kb + runner.child_rss_kb) / 1024.0,
        "setup_s": setup_s,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    overrides = sorted(k for k in os.environ if k.startswith("EICOUNT_"))
    if overrides:
        fail(f"refusing to run with {', '.join(overrides)} set: cap and "
             "backend overrides change the program being measured")
    add_paths()
    from perfbench import speed
    cpu = speed.pin_to_one_cpu()
    # The untraced run rescales its times by the probe; the traced run keeps
    # wall times, so that no probe time lands in a span.
    probe = None if args.trace else speed.SpeedProbe()
    clock = Clock(probe)
    if probe:
        probe.start()
    eicount, trace, workloads, (import_wall_s, import_s) = load_package(clock)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.WORKLOADS)}")
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in specs["end_to_end"] + specs["per_layer"]}

    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as tmp:
        tmp = Path(tmp)
        workload, build_s = build_workload(workloads, args.workload, args.seed,
                                           tmp, clock)
        setup_s = import_s + build_s
        result = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "backend": eicount.BACKEND,
                  "python": platform.python_version(),
                  "nproc": os.cpu_count(), "cpu": cpu}
        if args.trace:
            warmup = Runner(workload, workloads, inprocess=True)
            warmup.run_pass(workload.pass_ops(0))
            runner = Runner(workload, workloads, inprocess=True)
            npass = runner.run_until(args.seconds / 3)
            untraced_s = runner.wall_s()
            traced = Runner(workload, workloads, inprocess=True)
            tracer = trace.Tracer()
            tracer.install()
            try:
                traced.run_until(None, passes=npass)
            finally:
                tracer.remove()
            records = warmup.records + runner.records + traced.records
            failures = check_answers(workload, records)
            metrics = tracer.layer_metrics(measure_cli_import(workloads),
                                           traced.wall_s() / untraced_s)
            result["span_errors"] = dict(tracer.errors())
            spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(tracer.dump()))
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            runner = Runner(workload, workloads, inprocess=False, clock=clock)
            try:
                runner.run_until(args.seconds)
            finally:
                probe.stop()
            records = runner.records
            metrics = end_to_end(runner, setup_s)
            failures = check_answers(workload, records)
            wall = [r[3] for r in records]
            result["samples"] = len(wall)
            result["tail"] = tail_latency(runner.scaled)
            result["setup"] = {"import_s": import_s, "build_s": build_s,
                               "import_wall_s": import_wall_s}
            result["wall"] = {"ops_per_s": len(wall) / sum(wall),
                              "latency_p50_s": statistics.median(wall)}
            result["probe"] = {"samples": len(probe.loops),
                               "median_loop_s": statistics.median(probe.loops),
                               "busy_s": probe.busy_s}

    attempted = len(records)
    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result.update({
        "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted, "failures": failures[:20],
        "git_sha": git_sha(), "wall_latencies": {}, "metrics": reported,
    })
    for op, _, _, latency in records:
        result["wall_latencies"].setdefault(op.label, []).append(latency)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  backend {eicount.BACKEND}  "
          f"python {result['python']}  git {result['git_sha'][:12]}  "
          f"nproc {result['nproc']}")
    print(f"operations {attempted}  failed {len(failures)}  "
          f"error_rate {len(failures) / attempted:.4g}")
    for f in failures[:5]:
        print(f"  FAILED {f['op']}: {f['error'] or 'got ' + f['output'][-60:]}"
              f" (expected {f['expected'][-60:]})")
    if not args.trace:
        tail = result["tail"]
        print(f"setup: import {import_s:.4g} s  median build {build_s:.4g} s")
        print(f"wall time: ops_per_s {result['wall']['ops_per_s']:.6g}  "
              f"latency_p50_s {result['wall']['latency_p50_s']:.6g}  "
              f"(probe: {result['probe']['samples']} samples, median loop "
              f"{result['probe']['median_loop_s'] * 1e3:.4g} ms)")
        print(f"latency samples {result['samples']}  tail "
              + (f"{tail[0]} {tail[1]:.4g} s" if tail else
                 "not reported (fewer than 10 samples beyond p90)"))
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(f"result file {out.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

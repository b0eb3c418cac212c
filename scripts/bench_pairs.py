#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload edginj-poly --seeds 1-10 --seconds 30

Runs ``perfbench/run.py --workload W --seed S --seconds T`` in the parent
checkout and in the change checkout once per seed, the parent first on the
odd pairs and the change first on the even ones, and writes
``BENCH_<workload>.json`` (``--out`` to change it) with both checkouts'
commit and source digest, the seeds and the order, every pair's metrics,
each side's median and quartiles, how many pairs the change won per metric
and the bytecode-cache state of each run.  The reports already in that file
move to its ``history`` list, oldest first, one per parent commit: a new
report replaces an earlier one measured against the same parent.

Before every run the ``__pycache__`` directories under the checkout's
``src/`` are removed and the run gets ``PYTHONDONTWRITEBYTECODE=1``, so
both sides compile eicount from source as a fresh checkout does.  A run
whose answers are not all correct stops the script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def describe(checkout: Path):
    """The checkout's git commit and whether its tracked files differ from
    it (None without git), and a digest of its src/ Python files."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(checkout), *args],
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {"sha": sha,
            "dirty": None if sha is None else bool(
                git("status", "--porcelain", "--untracked-files=no")),
            "src_sha256": digest.hexdigest()}


def run_once(checkout: Path, workload, seed, seconds):
    """One benchmark run in ``checkout`` from source: its run counts,
    end-to-end metrics and bytecode-cache state."""
    caches = sorted((checkout / "src").rglob("__pycache__"))
    for cache in caches:
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: run failed in {checkout}:\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"bench_pairs: wrong answers in {checkout}: {result}")
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "pycache": {"dirs_removed": len(caches),
                        "PYTHONDONTWRITEBYTECODE": "1"}}


def summary(xs):
    """Median and inclusive quartiles, and their distance (the IQR)."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def write_report(report, out: Path):
    """Write ``report`` to ``out``, keeping the reports already there in its
    ``history``, less any measured against the same parent commit."""
    history = []
    if out.exists():
        old = json.loads(out.read_text())
        history = old.pop("history", []) + [old]
        parent = report["checkouts"]["parent"]["sha"]
        if parent is not None:
            history = [r for r in history
                       if r["checkouts"]["parent"]["sha"] != parent]
    out.write_text(json.dumps({**report, "history": history}, indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="a seed or an inclusive range such as 1-10")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two pairs")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "order": order}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed,
                                  args.seconds)
            print(f"seed {seed} {side}: {pair[side]['metrics']}", flush=True)
        pairs.append(pair)

    metrics = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        runs = {side: [p[side]["metrics"][name] for p in pairs]
                for side in sides}
        stats = {side: summary(xs) for side, xs in runs.items()}
        metrics[name] = {
            "better": direction, **stats,
            "median_change": stats["change"]["median"] / stats["parent"]["median"] - 1,
            "change_wins": sum(sign * (c - p) > 0 for p, c in
                               zip(runs["parent"], runs["change"])),
            "pairs": len(pairs)}
    report = {"workload": args.workload, "seconds": args.seconds,
              "seeds": args.seeds, "python": sys.version.split()[0],
              "nproc": os.cpu_count(),
              "checkouts": {side: describe(path) for side, path in sides.items()},
              "metrics": metrics, "pairs": pairs}
    out = args.out or sides["change"] / f"BENCH_{args.workload}.json"
    write_report(report, out)
    for name, m in metrics.items():
        print(f"{name}: parent {m['parent']['median']:.6g} "
              f"(IQR {m['parent']['iqr']:.3g})  change {m['change']['median']:.6g}  "
              f"{m['median_change']:+.1%}  change won {m['change_wins']}/{m['pairs']}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()

"""scripts/bench_pairs.py keeps the trajectory of a workload's reports and
records each side's tier-1 run once per report."""

import importlib.util
import json
import os
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def report(parent, p50):
    return {"workload": "edginj-poly",
            "checkouts": {"parent": {"sha": parent}, "change": {"sha": parent}},
            "metrics": {"latency_p50_s": {"change": {"median": p50}}}}


def test_second_write_keeps_the_first_report(tmp_path):
    out = tmp_path / "BENCH_edginj-poly.json"
    bench_pairs.write_report(report("a", 1.0), out)
    assert json.loads(out.read_text()) == {**report("a", 1.0), "history": []}
    bench_pairs.write_report(report("b", 2.0), out)
    bench_pairs.write_report(report("c", 3.0), out)
    assert json.loads(out.read_text()) == {
        **report("c", 3.0), "history": [report("a", 1.0), report("b", 2.0)]}


def test_rerun_against_one_parent_replaces_its_report(tmp_path):
    out = tmp_path / "BENCH_edginj-poly.json"
    bench_pairs.write_report(report("a", 1.0), out)
    bench_pairs.write_report(report("b", 2.0), out)
    bench_pairs.write_report(report("b", 2.5), out)
    assert json.loads(out.read_text()) == {
        **report("b", 2.5), "history": [report("a", 1.0)]}


def test_reports_without_git_all_stay(tmp_path):
    out = tmp_path / "BENCH_edginj-poly.json"
    for p50 in (1.0, 2.0):
        bench_pairs.write_report(report(None, p50), out)
    assert json.loads(out.read_text())["history"] == [report(None, 1.0)]


class Finished:
    def __init__(self, returncode, stdout=""):
        self.returncode, self.stdout, self.stderr = returncode, stdout, ""


def stub_runner(monkeypatch, tier1_stdout):
    """Stub subprocess.run for the script: a tier-1 run prints
    ``tier1_stdout`` and exits 0, git fails; returns the tier-1 calls."""
    calls = []

    def run(argv, cwd=None, env=None, **kwargs):
        if argv == bench_pairs.TIER1:
            calls.append((Path(cwd), env))
            return Finished(0, tier1_stdout)
        assert argv[0] == "git"
        return Finished(128)

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    return calls


def test_tier1_records_wall_time_and_summary(monkeypatch, tmp_path):
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    calls = stub_runner(monkeypatch, ".....\n530 passed in 41.23s\n")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    got = bench_pairs.tier1(tmp_path)
    assert got["summary"] == "530 passed in 41.23s"
    assert got["returncode"] == 0 and got["wall_s"] >= 0
    (cwd, env), = calls
    assert cwd == tmp_path
    assert env["PYTHONPATH"] == f"{tmp_path / 'src'}{os.pathsep}elsewhere"
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert not (tmp_path / "src" / "pkg" / "__pycache__").exists()


def test_report_holds_one_tier1_run_per_side(monkeypatch, tmp_path):
    sides = {side: tmp_path / side for side in ("parent", "change")}
    for path in sides.values():
        (path / "src").mkdir(parents=True)
    (sides["parent"] / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "latency_p50_s", "better": "lower"}]}))
    calls = stub_runner(monkeypatch, "3 passed in 0.01s\n")
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append(checkout)
        return {"attempted": 1, "failed": 0,
                "metrics": {"latency_p50_s": 1.0 if checkout == sides["parent"]
                            else 0.5}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    bench_pairs.main(["--parent", str(sides["parent"]), "--change",
                      str(sides["change"]), "--workload", "edginj-poly",
                      "--seeds", "1-3"])
    assert [cwd for cwd, _ in calls] == [sides["parent"], sides["change"]]
    assert len(runs) == 6
    report = json.loads((sides["change"] / "BENCH_edginj-poly.json").read_text())
    for side in sides:
        assert report["tier1"][side]["summary"] == "3 passed in 0.01s"
    assert report["metrics"]["latency_p50_s"]["change_wins"] == 3

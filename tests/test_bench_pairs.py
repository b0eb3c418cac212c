"""scripts/bench_pairs.py keeps the trajectory of a workload's reports."""

import importlib.util
import json
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

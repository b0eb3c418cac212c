"""Tests of the benchmark itself: seeded inputs, answer checking, tracing
and the output contract of ``perfbench/run.py``."""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from eicount import eihom, linegraphs, oracles  # noqa: E402
from eicount.graphs import Graph, line_graph, make_pattern, subdivide  # noqa: E402
from perfbench import run, speed, trace, workloads  # noqa: E402

GENERATED = ["edginj-poly", "cli-large-host"]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, env=None, cwd=ROOT):
    script = Path(cwd) / "perfbench" / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170,
                          env=env if env is not None else os.environ.copy())


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("EICOUNT_")}


@pytest.mark.parametrize("name", GENERATED)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.WORKLOADS[name](7, tmp_path / "a")
    b = workloads.WORKLOADS[name](7, tmp_path / "b")
    assert a.inputs() == b.inputs()
    assert a.inputs()
    for fname in getattr(a, "files", {}):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


@pytest.mark.parametrize("name", GENERATED)
def test_other_seed_gives_other_inputs(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.WORKLOADS[name](7, tmp_path / "a").inputs()
    b = workloads.WORKLOADS[name](8, tmp_path / "b").inputs()
    assert a.keys() == b.keys()
    assert a != b


def test_generated_hosts_have_the_stated_shape(tmp_path):
    w = workloads.CliLargeHost(3, tmp_path)
    for op in w.pass_ops(0):
        g = op.extra.get("closed_form")
        if g is None:
            continue
        assert len(g.components()) == 1 and g.n % 2 == 0
        if "perfmatch" in op.label:
            assert all(g.degree(v) == 3 for v in range(g.n))
    assert all(len(h.edges) == round(workloads.HOST_DENSITY * n * (n - 1) / 2)
               for hosts in workloads.EdginjPoly(3, tmp_path).hosts
               for n, h in hosts.items())


def test_closed_form_matches_the_oracle():
    rng = workloads.random.Random(0)
    g = workloads.random_connected(rng, 8, 12)
    assert workloads.odd_edge_sets_closed_form(g) == oracles.count_odd_edge_sets_enum(g)
    odd = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert workloads.odd_edge_sets_closed_form(odd) == 0 == oracles.count_odd_edge_sets_enum(odd)
    cubic = workloads.random_cubic(rng, 8)
    host = line_graph(subdivide(cubic, 1))
    assert (workloads.odd_edge_sets_closed_form(cubic)
            == linegraphs.count_perfmatch_3regular_line(host))


def cheap_records(tmp_path):
    w = workloads.EdginjPoly(5, tmp_path)
    small = workloads.HOST_SIZES[0]
    ops = [op for op in w.pass_ops(0) if op.label.endswith(f"@n{small}")][:6]
    runner = run.Runner(w, workloads, inprocess=False)
    runner.run_pass(ops)
    return w, runner.records


def test_correct_answers_pass_the_check(tmp_path):
    w, records = cheap_records(tmp_path)
    assert run.check_answers(w, records) == []


def test_corrupted_expected_answer_counts_as_failure(tmp_path):
    w, records = cheap_records(tmp_path)
    corrupt = records[2][0].key
    reference = w.reference
    w.reference = lambda op: reference(op) + (op.key == corrupt)
    failures = run.check_answers(w, records)
    assert len(failures) == 1
    assert len(failures) / len(records) > 0


def test_failed_operation_is_counted_not_raised(tmp_path):
    w = workloads.EdginjPoly(5, tmp_path)
    big = make_pattern("kP2", 4)          # weak vertex-cover number 4 > 3
    op = w._op("too-wide", big, workloads.HOST_SIZES[0])
    runner = run.Runner(w, workloads, inprocess=False)
    runner.run_pass([op])
    (_, output, error, _), = runner.records
    assert output is None and error.startswith("CapExceeded")


def test_cli_child_reports_its_own_peak_rss(tmp_path):
    w = workloads.CliLargeHost(5, tmp_path)
    small = [op for op in w.pass_ops(0) if "closed_form" not in op.extra][:1]
    runner = run.Runner(w, workloads, inprocess=False)
    runner.run_pass(small)
    (op, output, error, _), = runner.records
    assert error is None and output[0] == 0
    assert output[1].strip() == str(w.reference(op))
    assert runner.child_rss_kb > 1024
    assert run.end_to_end(runner, 0.1)["peak_rss_mb"] > runner.child_rss_kb / 1024


def test_speed_probe_rescales_to_the_reference_speed():
    probe = speed.SpeedProbe()
    half = speed.REF_LOOP_S * 2                 # the machine at half speed
    probe.times = [0.0, 1.0, 2.0, 10.0]
    probe.loops = [half, half, speed.REF_LOOP_S / 2, half]
    # 2 s of wall time less 0.5 s of probe time, at half speed
    assert probe.rescale(0.5, 2.5, 0.5) == pytest.approx(1.5 * (0.5 + 2) / 2)
    assert probe.rescale(0.5, 0.9, 0.0) == pytest.approx(0.4 * 0.5)
    assert probe.rescale(5.0, 6.0, 0.0) == pytest.approx(1.0 * 2)   # last before


def test_speed_probe_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        sum(i * i for i in range(3_000_000))
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.loops) >= 3 and probe.busy_s == pytest.approx(sum(probe.loops))
    assert probe.times == sorted(probe.times)


def test_tracer_patches_every_binding_and_restores_it():
    before = linegraphs.count_perfect_matchings
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert linegraphs.count_perfect_matchings is oracles.count_perfect_matchings
        assert linegraphs.count_perfect_matchings is not before
        host = line_graph(subdivide(workloads.random_cubic(
            workloads.random.Random(1), 6), 1))
        linegraphs.count_perfmatch_3regular_line(host)
        eihom.count_edginj_poly(make_pattern("C", 4), make_pattern("K", 5))
    finally:
        tracer.remove()
    assert linegraphs.count_perfect_matchings is before
    assert oracles.count_perfect_matchings is before
    self_s = tracer.self_times()
    assert all(v >= -1e-9 for v in self_s.values())
    assert tracer.calls["linegraphs.decompose_3regular_line"] == 1
    assert tracer.calls["eihom.count_emb_small_vc"] >= 1
    assert tracer.yields["eihom.realized_classes"] >= 1
    metrics = tracer.layer_metrics(0.1, 1.0)
    assert list(metrics) == [n for n, _, _ in trace.metric_specs()]


def test_benchmark_json_lists_every_layer_metric():
    s = spec()
    assert [(m["name"], m["unit"], m["better"]) for m in s["per_layer"]] \
        == trace.metric_specs()
    assert len(s["per_layer"]) <= 128
    assert {w["name"] for w in s["workloads"]} == set(workloads.WORKLOADS)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_traced_run_emits_every_per_layer_metric():
    proc = bench("--workload", "cli-large-host", "--seed", "3",
                 "--seconds", "1", "--trace", "1", env=clean_env())
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["graphs.parse_graph.growth_exponent"] > 1.5
    assert m["linegraphs.decompose_3regular_line.self_s"] > 0


def test_untraced_run_emits_every_end_to_end_metric():
    proc = bench("--workload", "cli-large-host", "--seed", "4",
                 "--seconds", "1", "--trace", "0", env=clean_env())
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_eicount_overrides():
    env = dict(clean_env(), EICOUNT_PATTERN_CAP="10")
    proc = bench("--workload", "cli-large-host", "--seed", "1",
                 "--seconds", "1", env=env)
    assert proc.returncode != 0
    assert "EICOUNT_PATTERN_CAP" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "edginj-poly", "--seed", "1", "--seconds", "1",
                 env=clean_env(), cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

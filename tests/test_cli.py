import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eicount.cli import ROUTES, main
from eicount.graphs import parse_graph, serialize_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_edginj_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "count", "edginj",
                               "--pattern", "builtin:P,2",
                               "--host", "builtin:K,3", "--algo", "oracle")
        assert code == 0 and out.strip() == "6"

    def test_algo_poly_agrees(self, capsys):
        for algo in ("oracle", "poly"):
            code, out, _ = run_cli(capsys, "count", "edginj",
                                   "--pattern", "builtin:kP2,2",
                                   "--host", "builtin:K,4", "--algo", algo)
            assert code == 0 and out.strip() == "240"

    def test_host_file(self, capsys, tmp_path):
        f = tmp_path / "k3.g"
        f.write_text("v 3\ne 0 1\ne 0 2\ne 1 2\n")
        code, out, _ = run_cli(capsys, "count", "edginj",
                               "--pattern", "builtin:P,2", "--host", str(f))
        assert code == 0 and out.strip() == "6"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "count", "perfmatch",
                               "--host", "builtin:K,4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["quantity"] == "perfmatch"
        assert doc["value"] == "3" and isinstance(doc["value"], str)
        assert doc["algo"] == "oracle"

    def test_matchings_pipelines_agree(self, capsys):
        vals = set()
        for algo in ("oracle", "pipeline:wedges", "pipeline:apex",
                     "pipeline:star"):
            code, out, _ = run_cli(capsys, "count", "matchings",
                                   "--host", "builtin:C,6", "--k", "2",
                                   "--algo", algo)
            assert code == 0
            vals.add(out.strip())
        assert vals == {"9"}

    @pytest.mark.parametrize("k,want", [(2, "28"), (3, "35")])
    def test_matchings_pipelines_on_disconnected_host(self, capsys, tmp_path,
                                                     k, want):
        # C_6, a path with three edges and an isolated vertex
        f = tmp_path / "host.g"
        f.write_text("v 11\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 0 5\n"
                     "e 6 7\ne 7 8\ne 8 9\n")
        for algo in ("oracle", "pipeline:wedges", "pipeline:apex",
                     "pipeline:star"):
            code, out, _ = run_cli(capsys, "count", "matchings", "--host",
                                   str(f), "--k", str(k), "--algo", algo)
            assert code == 0 and out.strip() == want

    @pytest.mark.parametrize("algo", ["pipeline:wedges", "pipeline:apex",
                                      "pipeline:star"])
    def test_matchings_pipelines_reject_odd_cycle(self, capsys, algo):
        code, out, err = run_cli(capsys, "count", "matchings",
                                 "--host", "builtin:C,5", "--k", "2",
                                 "--algo", algo)
        assert code == 2 and out == "" and "host is not bipartite" in err

    def test_perfmatch_pipeline(self, capsys):
        code, out, _ = run_cli(capsys, "count", "perfmatch",
                               "--host", "builtin:K,4",
                               "--algo", "pipeline:line", "--ell", "2")
        assert code == 0 and out.strip() == "3"

    def test_ec_cycles(self, capsys):
        for algo in ("oracle", "pipeline:paths"):
            code, out, _ = run_cli(capsys, "count", "ec-cycles",
                                   "--host", "builtin:K,4", "--k", "3",
                                   "--algo", algo)
            assert code == 0 and out.strip() == "4"

    def test_ec_cycles_paths_rejects_k6(self, capsys):
        code, out, err = run_cli(capsys, "count", "ec-cycles",
                                 "--host", "builtin:K,5", "--k", "6",
                                 "--algo", "pipeline:paths")
        assert code == 2 and out == "" and "3 <= k <= 5" in err

    def test_cap_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "count", "hom",
                               "--pattern", "builtin:K,12",
                               "--host", "builtin:K,12")
        assert code == 3 and "cap" in err.lower()

    def test_long_cycle_within_the_search_budget(self, capsys):
        code, out, _ = run_cli(capsys, "count", "edginj",
                               "--pattern", "builtin:C,30",
                               "--host", "builtin:C,30")
        assert code == 0 and out.strip() == "60"

    @pytest.mark.parametrize("quantity,pattern,host", [
        ("hom", "builtin:P,1200", "builtin:kK2,5"),
        ("edginj", "builtin:C,1200", "builtin:C,1200")])
    def test_pattern_past_the_recursion_limit(self, capsys, quantity,
                                              pattern, host):
        code, out, err = run_cli(capsys, "count", quantity,
                                 "--pattern", pattern, "--host", host)
        assert code == 3 and out == "" and "recursion limit" in err

    @pytest.mark.parametrize("bound,code,want", [("2", 3, ""), ("4", 0, "720\n")])
    def test_bound_reaches_emb_poly(self, capsys, bound, code, want):
        got = run_cli(capsys, "count", "emb", "--algo", "poly",
                      "--pattern", "builtin:K,5", "--host", "builtin:K,6",
                      "--bound", bound)
        assert got[:2] == (code, want)

    def test_usage_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "count", "matchings",
                               "--host", "builtin:C,6", "--k", "2",
                               "--algo", "pipeline:bogus")
        assert code == 2

    @pytest.mark.parametrize("quantity", ["perfmatch", "odd-edge-sets", "hom"])
    def test_negative_vertex_count(self, capsys, tmp_path, quantity):
        f = tmp_path / "neg.g"
        f.write_text("# empty\nv -3\n")
        code, out, err = run_cli(capsys, "count", quantity, "--algo", "oracle",
                                 "--pattern", "builtin:P,1", "--host", str(f))
        assert code == 2 and out == ""
        assert "line 2: negative vertex count -3" in err

    @pytest.mark.parametrize("algo", ["oracle", "pipeline:subdiv",
                                      "pipeline:uncolored"])
    def test_colors_on_some_edges_only(self, capsys, tmp_path, algo):
        f = tmp_path / "part.g"
        f.write_text("v 3\ne 0 1 c=1\ne 1 2\n")
        code, out, err = run_cli(capsys, "count", "colmatch", "--host", str(f),
                                 "--algo", algo)
        assert code == 2 and out == ""
        assert "colors must cover every edge or none" in err

    # inputs per quantity on which every route applies
    ROUTE_INPUTS = {
        "hom": ["--pattern", "builtin:P,2", "--host", "builtin:K,4"],
        "emb": ["--pattern", "builtin:P,2", "--host", "builtin:K,4"],
        "edginj": ["--pattern", "builtin:kP2,2", "--host", "builtin:K,4"],
        "wedginj": ["--pattern", "builtin:P,2", "--host", "K3w.g"],
        "matchings": ["--host", "builtin:C,6", "--k", "2"],
        "colmatch": ["--host", "C4.g"],
        "perfmatch": ["--host", "builtin:K,4"],
        "odd-edge-sets": ["--host", "builtin:K,4"],
        "ec-cycles": ["--host", "builtin:K,4", "--k", "3"],
        "ec-paths": ["--host", "builtin:K,4", "--k", "2"],
    }

    @pytest.mark.parametrize("quantity,algo", [
        (q, a) for q, routes in ROUTES.items() for a in routes])
    def test_every_route_agrees_with_oracle(self, capsys, tmp_path, monkeypatch,
                                            quantity, algo):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "C4.g").write_text(
            "v 4\ne 0 1 c=1\ne 1 2 c=1\ne 2 3 c=2\ne 0 3 c=2\n")
        (tmp_path / "K3w.g").write_text("v 3\ne 0 1 w=2\ne 0 2 w=3\ne 1 2 w=1\n")
        argv = ["count", quantity, *self.ROUTE_INPUTS[quantity]]
        code, want, _ = run_cli(capsys, *argv)
        assert code == 0 and int(want) > 0
        code, got, _ = run_cli(capsys, *argv, "--algo", algo)
        assert code == 0 and got == want

    @pytest.mark.parametrize("quantity,algo", [
        ("hom", "pipeline:bogus"), ("emb", "pipeline:line"),
        ("edginj", "nonsense"), ("wedginj", "poly"),
        ("matchings", "poly"), ("colmatch", "poly"),
        ("perfmatch", "pipeline:wedges"), ("odd-edge-sets", "whatever"),
        ("ec-cycles", "poly"), ("ec-paths", "poly")])
    def test_inapplicable_algo(self, capsys, quantity, algo):
        code, out, err = run_cli(capsys, "count", quantity,
                                 "--pattern", "builtin:P,2",
                                 "--host", "builtin:K,4", "--k", "2",
                                 "--algo", algo)
        assert code == 2 and out == ""
        assert f"unknown algo {algo!r} for {quantity}" in err
        assert "oracle" in err


class TestGen:
    def test_collar(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "collar", "2")
        assert code == 0
        g = parse_graph(out)
        assert (g.n, g.m) == (10, 15)

    def test_round_trip_byte_exact(self, capsys):
        for spec in [("collar", "2"), ("K", "4"), ("SS", "3"), ("Gi", "3")]:
            code, out, _ = run_cli(capsys, "gen", *spec)
            assert code == 0
            assert serialize_graph(parse_graph(out)) == out


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "gamma")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines if "gamma/" in line)
        assert lines[-1].endswith("checks passed")

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus")
        assert code == 2


class TestEntryPoint:
    @staticmethod
    def child_env():
        # the children import eicount from this checkout's src directory
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        return {**os.environ,
                "PYTHONPATH": src + os.pathsep + path if path else src}

    def test_installed_script(self):
        proc = subprocess.run([sys.executable, "-m", "eicount.cli", "count",
                               "edginj", "--pattern", "builtin:P,2",
                               "--host", "builtin:K,3"],
                              capture_output=True, text=True,
                              env=self.child_env())
        assert proc.returncode == 0 and proc.stdout.strip() == "6"

    def test_verify_all_without_asserts(self):
        # -O strips every assert: the pipelines must check their divisions
        # with explicit errors, and still pass every identity
        proc = subprocess.run([sys.executable, "-O", "-m", "eicount.cli",
                               "verify", "all"],
                              capture_output=True, text=True,
                              env=self.child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "180/180 checks passed"

import json
import os
import subprocess
import sys
from math import factorial
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

    def test_json_records_ell_where_it_is_read(self, capsys):
        code, out, _ = run_cli(capsys, "count", "perfmatch",
                               "--host", "builtin:K,4", "--format", "json",
                               "--algo", "pipeline:line")
        assert code == 0 and json.loads(out)["params"]["ell"] == 2
        code, out, _ = run_cli(capsys, "count", "hom", "--format", "json",
                               "--pattern", "builtin:P,2",
                               "--host", "builtin:K,3")
        assert code == 0 and "ell" not in json.loads(out)["params"]
        code, out, _ = run_cli(capsys, "count", "perfmatch",
                               "--host", "builtin:K,4", "--ell", "0",
                               "--algo", "pipeline:line")
        assert (code, out) == (2, "")

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

    def test_matchings_pipelines_pick_the_side_per_component(self, capsys,
                                                             tmp_path):
        # two K_{1,3} stars, centres 0 and 5: neither global colour class
        # can be the left side, but each component has one
        f = tmp_path / "stars.g"
        f.write_text("v 8\ne 0 1\ne 0 2\ne 0 3\ne 4 5\ne 5 6\ne 5 7\n")
        for algo in ("oracle", "pipeline:wedges", "pipeline:apex",
                     "pipeline:star"):
            code, out, _ = run_cli(capsys, "count", "matchings", "--host",
                                   str(f), "--k", "2", "--algo", algo)
            assert (code, out) == (0, "9\n"), algo

    def test_wedges_enumerate_matchings_up_to_3k(self, capsys):
        # the hub profile stops at 3k edges, so C_30 at k = 1 stays well
        # within the default search budget
        code, out, _ = run_cli(capsys, "count", "matchings", "--host",
                               "builtin:C,30", "--k", "1",
                               "--algo", "pipeline:wedges")
        assert (code, out) == (0, "30\n")

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

    @pytest.mark.parametrize("leaves", ["24", "40"])
    def test_large_star_within_the_cover_cap(self, capsys, leaves):
        # the cover search tries 2 subsets, whatever the number of leaves
        code, out, _ = run_cli(capsys, "count", "edginj", "--algo", "poly",
                               "--pattern", "builtin:Kab,1," + leaves,
                               "--host", "builtin:K,5")
        assert (code, out) == (0, "0\n")

    def test_cover_cap_exit_code(self, capsys, monkeypatch):
        # the search reaches size 5, past 1 + 12 + 66 + 220 + 495 subsets
        # of K_{6,6}'s 12 vertices
        monkeypatch.setenv("EICOUNT_VERTEX_COVER_CAP", "1000")
        code, out, err = run_cli(capsys, "count", "edginj", "--algo", "poly",
                                 "--pattern", "builtin:Kab,6,6",
                                 "--host", "builtin:K,5")
        assert (code, out) == (3, "") and "VERTEX_COVER_CAP" in err

    def test_cover_cap_stops_the_cover_search(self, capsys, monkeypatch):
        # the 1 + 24 + 276 + 2,024 subsets of K_{12,12}'s 24 vertices up to
        # size 3 hold no cover, and the search runs on to the cap
        monkeypatch.setenv("EICOUNT_VERTEX_COVER_CAP", "2325")
        code, out, err = run_cli(capsys, "count", "edginj", "--algo", "poly",
                                 "--pattern", "builtin:Kab,12,12",
                                 "--host", "builtin:K,5")
        assert (code, out) == (3, "")
        assert "VERTEX_COVER_CAP: 2326 subsets exceed cap 2325" in err

    def test_poly_matchings_are_charged(self, capsys, monkeypatch):
        # 3K2 has cover 3, so the placement tries some 100^3 host triples;
        # it answers 152,096, and a lowered cap stops it
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", "1000")
        code, out, err = run_cli(capsys, "count", "matchings", "--algo", "poly",
                                 "--host", "builtin:P,100", "--k", "3")
        assert (code, out) == (3, "") and "SEARCH_VOLUME_CAP" in err

    def test_pipeline_searches_share_one_budget(self, capsys, monkeypatch):
        # 16 searches try 2,912 images in all, none more than 774
        argv = ("count", "ec-cycles", "--algo", "pipeline:paths",
                "--host", "builtin:K,4", "--k", "3")
        assert run_cli(capsys, *argv)[:2] == (0, "4\n")
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", "1000")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "") and "SEARCH_VOLUME_CAP" in err

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
        # the map search keeps its own stack, one entry per pattern vertex
        code, out, _ = run_cli(capsys, "count", quantity,
                               "--pattern", pattern, "--host", host)
        want = {"hom": "10\n", "edginj": "2400\n"}[quantity]
        assert (code, out) == (0, want)

    def test_matching_past_the_recursion_limit(self, capsys):
        code, out, _ = run_cli(capsys, "count", "matchings",
                               "--host", "builtin:kK2,1100", "--k", "1100")
        assert (code, out) == (0, "1\n")

    def test_star_past_the_recursion_limit(self, capsys):
        # weak cover number 1: one cover sub-partition, found by a search
        # that places all 1,201 vertices
        code, out, _ = run_cli(capsys, "count", "edginj", "--algo", "poly",
                               "--pattern", "builtin:Kab,1,1200",
                               "--host", "builtin:Kab,1,1200")
        assert (code, out) == (0, f"{factorial(1200)}\n")

    @pytest.mark.parametrize("argv", [
        ("--host", "builtin:K,30", "--k", "5"),
        ("--host", "builtin:P,2400", "--k", "1", "--algo", "pipeline:wedges")])
    def test_matching_enumeration_is_charged(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", "1000")
        code, out, err = run_cli(capsys, "count", "matchings", *argv)
        assert (code, out) == (3, "") and "SEARCH_VOLUME_CAP" in err

    def test_emb_poly_needs_no_bound(self, capsys):
        # K_5 has cover 4; only the work caps stop the embedding count
        got = run_cli(capsys, "count", "emb", "--algo", "poly",
                      "--pattern", "builtin:K,5", "--host", "builtin:K,6")
        assert got[:2] == (0, "720\n")

    @pytest.mark.parametrize("quantity", ["emb", "edginj"])
    def test_negative_bound_is_bad_input(self, capsys, quantity):
        # there is no --bound option, so any bound is a usage error
        with pytest.raises(SystemExit) as exit_:
            main(["count", quantity, "--algo", "poly", "--pattern",
                  "builtin:P,2", "--host", "builtin:K,3", "--bound", "-1"])
        out = capsys.readouterr()
        assert (exit_.value.code, out.out) == (2, "")
        assert "unrecognized arguments: --bound -1" in out.err
        with pytest.raises(SystemExit):
            main(["count", "--help"])
        assert "--bound" not in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["oracle", "pipeline:wedges",
                                      "pipeline:apex", "pipeline:star"])
    def test_negative_k_matchings(self, capsys, algo):
        code, out, err = run_cli(capsys, "count", "matchings",
                                 "--host", "builtin:C,6", "--k", "-1",
                                 "--algo", algo)
        assert (code, out, err) == (2, "", "error: k must be >= 0\n")

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

    @pytest.mark.parametrize("line, message", [
        ("e 0 1 w=1 w=9", "line 2: repeated attribute 'w=9'"),
        ("e 0 1 c=1 c=2", "line 2: repeated attribute 'c=2'"),
        ("e 1 1", "line 2: self-loop at 1")])
    def test_malformed_edge_line(self, capsys, tmp_path, line, message):
        f = tmp_path / "bad.g"
        f.write_text(f"v 3\n{line}\n")
        code, out, err = run_cli(capsys, "count", "wedginj",
                                 "--pattern", "builtin:P,1", "--host", str(f))
        assert (code, out) == (2, "") and message in err

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
        "cycles": ["--host", "builtin:K,4", "--k", "3"],
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
        ("matchings", "pipeline:gadget"), ("colmatch", "poly"),
        ("perfmatch", "pipeline:wedges"), ("odd-edge-sets", "whatever"),
        ("ec-cycles", "pipeline:wedges"), ("ec-paths", "pipeline:paths"),
        ("cycles", "pipeline:paths")])
    def test_inapplicable_algo(self, capsys, quantity, algo):
        code, out, err = run_cli(capsys, "count", quantity,
                                 "--pattern", "builtin:P,2",
                                 "--host", "builtin:K,4", "--k", "2",
                                 "--algo", algo)
        assert code == 2 and out == ""
        assert f"unknown algo {algo!r} for {quantity}" in err
        assert "oracle" in err


    @pytest.mark.parametrize("quantity,k,message", [
        ("matchings", "-1", "k must be >= 0"),
        ("ec-cycles", "2", "cycles need k >= 3"),
        ("ec-paths", "0", "paths need k >= 1"),
        ("cycles", "2", "cycles need k >= 3")])
    @pytest.mark.parametrize("algo", ["oracle", "poly"])
    def test_k_out_of_range(self, capsys, quantity, k, message, algo):
        code, out, err = run_cli(capsys, "count", quantity, "--algo", algo,
                                 "--host", "builtin:K,4", "--k", k)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_short_cycles_rejected_alike(self, capsys):
        got = {algo: run_cli(capsys, "count", "cycles", "--algo", algo,
                             "--host", "builtin:K,4", "--k", "2")
               for algo in ("oracle", "poly", "pipeline:gadget")}
        assert set(got.values()) == {(2, "", "error: cycles need k >= 3\n")}


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


class TestImportFootprint:
    """A fresh ``python -m eicount.cli`` child, with no bytecode cache,
    imports only the modules its route runs."""

    ROUTE_MODULES = {"holant", "reductions", "verify", "eihom", "linegraphs"}
    # runs ``python -m eicount.cli`` and, at exit, writes the eicount
    # modules in sys.modules as the last line of stderr
    PROBE = ("import atexit, runpy, sys\n"
             "atexit.register(lambda: print(*sorted(\n"
             "    m for m in sys.modules if m.startswith('eicount.')),\n"
             "    file=sys.stderr))\n"
             "runpy.run_module('eicount.cli', run_name='__main__', "
             "alter_sys=True)\n")

    @staticmethod
    def run_child(*args):
        env = {**TestEntryPoint.child_env(), "PYTHONDONTWRITEBYTECODE": "1"}
        return subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, env=env)

    def loaded(self, *argv):
        """Run the CLI with ``argv``; (exit code, stdout, the rest of
        stderr, names of the eicount modules loaded at exit)."""
        proc = self.run_child("-c", self.PROBE, *argv)
        *err, modules = proc.stderr.splitlines()
        return (proc.returncode, proc.stdout, "\n".join(err),
                {m[len("eicount."):] for m in modules.split()})

    @pytest.mark.parametrize("argv", [
        ["count", "hom", "--pattern", "builtin:P,2", "--host", "builtin:K,3"],
        ["gen", "collar", "2"]])
    def test_small_commands_load_no_route_module(self, argv):
        code, out, err, modules = self.loaded(*argv)
        assert code == 0 and out, err
        assert "graphs" in modules
        assert not modules & self.ROUTE_MODULES
        # oracles needs exact only for its exact divisions
        assert "exact" not in modules

    def test_odd_edge_sets_poly_loads_linegraphs_only(self):
        code, out, err, modules = self.loaded(
            "count", "odd-edge-sets", "--algo", "poly", "--host", "builtin:K,4")
        assert code == 0 and out.strip() == "8", err
        assert "linegraphs" in modules
        assert not modules & {"holant", "reductions", "verify"}

    def test_verify_all_loads_the_suites(self):
        code, out, err, modules = self.loaded("verify", "all")
        assert code == 0, err
        assert out.splitlines()[-1] == "180/180 checks passed"
        assert self.ROUTE_MODULES <= modules

    def test_verify_help(self):
        code, out, err, modules = self.loaded("verify", "--help")
        assert code == 0 and "suite" in out, err
        assert "verify" not in modules

    def test_error_needs_no_preloaded_route_module(self):
        code, out, err, _ = self.loaded(
            "count", "perfmatch", "--algo", "poly", "--host", "builtin:C,6")
        assert code == 2 and out == ""
        assert err == "error: graph is not 3-regular"

    def test_public_names_resolve(self):
        proc = self.run_child("-c", (
            "import eicount\n"
            "for name in eicount.__all__:\n"
            "    getattr(eicount, name)\n"
            "assert eicount.holant.__name__ == 'eicount.holant'\n"
            "from eicount import *\n"
            "print(len(eicount.__all__), count_edginj_poly.__module__)\n"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["21", "eicount.eihom"]

import ast
import itertools
import random
import time
from math import factorial
from pathlib import Path

import pytest

from eicount import _kernels_py
from eicount import oracles as O
from eicount.config import CapExceeded
from eicount.graphs import Graph, line_graph, make_pattern
from eicount.linegraphs import replace_matching_with_collars, triangle_expand
from reference import count_edginj_via_partition_sum, search_order_by_rescan

K2 = make_pattern("K", 2)
K3 = make_pattern("K", 3)
K4 = make_pattern("K", 4)
P2 = make_pattern("P", 2)
EMPTY = Graph(0, [])


def rand_graph(rng, n, p=0.5):
    return Graph(n, [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < p])


class TestHomFamily:
    def test_hom_edge(self):
        for g in [K3, K4, make_pattern("C", 5)]:
            assert O.count_hom(K2, g) == 2 * g.m

    def test_hom_vertex(self):
        assert O.count_hom(make_pattern("K", 1), K4) == 4

    def test_hom_wedge_triangle(self):
        assert O.count_hom(P2, K3) == 12

    def test_emb_automorphisms(self):
        assert O.count_emb(K3, K3) == 6

    def test_emb_claw(self):
        assert O.count_emb(make_pattern("Kab", 1, 3), K4) == 24

    def test_edginj_examples(self):
        assert O.count_edginj(K2, K4) == 12
        assert O.count_edginj(P2, K3) == 6
        assert O.count_edginj(EMPTY, K4) == 1

    def test_sandwich(self):
        rng = random.Random(1)
        for _ in range(30):
            h = rand_graph(rng, rng.randrange(1, 6))
            g = rand_graph(rng, rng.randrange(1, 7))
            emb, einj, hom = O.count_emb(h, g), O.count_edginj(h, g), O.count_hom(h, g)
            assert emb <= einj <= hom

    def test_cliques_windmills_bicliques_embed(self):
        # edge-injective maps from these patterns are automatically
        # vertex-injective
        rng = random.Random(2)
        pats = [make_pattern("K", a) for a in (2, 3, 4)]
        pats += [make_pattern("Kab", a, b) for a in (1, 2) for b in (2, 3)]
        pats += [make_pattern("W", k) for k in (1, 2)]
        for h in pats:
            for _ in range(4):
                g = rand_graph(rng, 6)
                assert O.count_edginj(h, g) == O.count_emb(h, g)

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", "10000")
        with pytest.raises(CapExceeded, match="SEARCH_VOLUME_CAP"):
            O.count_hom(make_pattern("K", 12), make_pattern("K", 12))


def test_search_order_matches_rescan():
    # random patterns with many ties in placed neighbours and degree:
    # sparse and dense ones, cycles, matchings and disjoint unions
    rng = random.Random(25)
    patterns = [make_pattern("C", 9), make_pattern("kP2", 3), make_pattern("K", 5),
                Graph(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]), Graph(4, [])]
    for _ in range(300):
        n = rng.randrange(1, 14)
        p = rng.choice((0.15, 0.3, 0.6))
        patterns.append(Graph(n, [e for e in itertools.combinations(range(n), 2)
                                  if rng.random() < p]))
    for h in patterns:
        assert O._search_order(h) == search_order_by_rescan(h)


class TestSearchBudget:
    """SEARCH_VOLUME_CAP bounds the candidate images the map search tries,
    summed over its nodes."""

    def test_images_tried_at_the_cap_are_admitted(self, monkeypatch):
        # 3 images for the first end of the edge, 2 for the other per first
        # (an isolated edge is searched only under embeddings)
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", "9")
        assert O.count_emb(make_pattern("P", 1), K3) == 6
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", "8")
        with pytest.raises(CapExceeded, match="SEARCH_VOLUME_CAP: 9 images exceed cap 8"):
            O.count_emb(make_pattern("P", 1), K3)

    @pytest.mark.parametrize("count,h,g,want,charge", [
        # P_2 into K_4 places its centre (4 images), one end (3 per centre)
        # and then the other end, a leaf of 3 candidates (2 under
        # embeddings, where the first end is taken); under edge-injective
        # maps the leaf is charged all 3 before the used edge is dropped
        (O.count_hom, make_pattern("P", 2), K4, 36, 52),
        (O.count_emb, make_pattern("P", 2), K4, 24, 40),
        (O.count_edginj, make_pattern("P", 2), K4, 24, 52),
        # C_5 into K_5 has nodes whose two parents share an image: they are
        # charged their candidates and count 0
        (O.count_edginj, make_pattern("C", 5), make_pattern("K", 5), 120, 224),
    ])
    def test_counted_leaves_charge_every_candidate(self, monkeypatch, count,
                                                   h, g, want, charge):
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", str(charge))
        assert count(h, g) == want
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", str(charge - 1))
        with pytest.raises(CapExceeded, match=f"images exceed cap {charge - 1}$"):
            count(h, g)

    def test_small_budget_stops_a_small_hard_search(self, monkeypatch):
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", "1000")
        with pytest.raises(CapExceeded):
            O.count_hom(make_pattern("P", 3), make_pattern("K", 20))
        monkeypatch.delenv("EICOUNT_SEARCH_VOLUME_CAP")
        assert O.count_hom(make_pattern("P", 3), make_pattern("K", 20)) == 137180

    def test_large_easy_cycle_fits_the_default_budget(self):
        c30 = make_pattern("C", 30)
        assert O.count_edginj(c30, c30) == O.count_emb(c30, c30) == 60


def test_no_floating_point_outside_verify():
    # verify.py draws random graphs at float densities; every other module
    # computes in ints and fractions only
    src = Path(O.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "verify.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Constant)
                        and isinstance(node.value, (float, complex))), \
                f"{path.name}:{node.lineno} float literal"
            assert not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "float"), \
                f"{path.name}:{node.lineno} float() call"


def test_every_import_is_read():
    # a module that imports a name must read it somewhere
    src = Path(O.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread = [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in read]
        assert not unread, f"imported but never read: {unread}"


# module-level functions and classes of the package that no route reaches,
# each with the reason it stays
UNREACHED_BY_DESIGN = {
    "__init__.__getattr__": "PEP 562 hook: Python calls it to resolve a "
                            "public name or submodule on first use",
    "__init__.__dir__": "PEP 562 hook: Python calls it for dir(eicount)",
}


def _bindings(tree, member):
    """What the imports from the package in ``tree`` bind, local name ->
    ("module", m) or ("name", m, attr); ``member(m, attr)`` resolves an
    attribute of module m."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                head, _, sub = a.name.partition(".")
                if head != "eicount":
                    continue
                if a.asname:
                    out[a.asname] = ("module", sub or "__init__")
                else:  # "import eicount.cli" binds the package
                    out[head] = ("module", "__init__")
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                base = mod or "__init__"
            elif mod.partition(".")[0] == "eicount":
                base = mod.partition(".")[2] or "__init__"
            else:
                continue
            for a in node.names:
                out[a.asname or a.name] = member(base, a.name)
    return out


def _reads(node, mod, defs, binds, member):
    """The (module, name) pairs of package definitions that the code under
    ``node``, in module ``mod`` (None outside the package), reads."""
    def resolve(expr):
        if isinstance(expr, ast.Name):
            if expr.id in defs.get(mod, ()):
                return ("name", mod, expr.id)
            return binds.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = resolve(expr.value)
            if base and base[0] == "module":
                return member(base[1], expr.attr)
        return None

    out = set()
    for n in ast.walk(node):
        target = resolve(n)
        if target and target[0] == "name":
            out.add(target[1:])
        # the kernels are called by name through _backend.run_kernel
        if (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "run_kernel"
                and n.args and isinstance(n.args[0], ast.Constant)):
            out.add(("_kernels_py", n.args[0].value))
    return out


def test_every_definition_is_reached():
    # src holds only what a route reaches: following the names that each
    # reached definition reads (module-level tables too) from the CLI entry
    # point, cli.ROUTES, verify.SUITES and every name the benchmark reads
    # reaches each module-level function and class of the package.  A
    # public name of _EXPORTS gets no pass of its own: a route must use it.
    src = Path(O.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    exports = {}
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and getattr(
                node.targets[0], "id", None) == "_EXPORTS":
            for home, names in ast.literal_eval(node.value).items():
                exports.update(dict.fromkeys(names, home))

    def member(mod, attr):
        # the package resolves a public name in its home module (PEP 562)
        if mod == "__init__" and attr in exports:
            return ("name", exports[attr], attr)
        if mod == "__init__" and attr in trees:
            return ("module", attr)
        return ("name", mod, attr)

    defs = {}  # module -> top-level name -> the statement defining it
    binds = {}
    roots = {("cli", "main"), ("cli", "ROUTES"), ("verify", "SUITES")}
    for mod, tree in trees.items():
        binds[mod] = _bindings(tree, member)
        defs[mod] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod][node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            defs[mod][n.id] = node
    for mod, tree in trees.items():  # code that runs on import
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign,
                                     ast.AnnAssign, ast.Import, ast.ImportFrom)):
                roots |= _reads(node, mod, defs, binds[mod], member)
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        roots |= _reads(tree, None, defs, _bindings(tree, member), member)
        for node in tree.body:  # the tracer's spans, named by strings
            if isinstance(node, ast.Assign) and getattr(
                    node.targets[0], "id", None) == "TRACED":
                roots |= {tuple(dotted.split(".")[:2]) for dotted, _ in
                          ast.literal_eval(node.value)}
    reached, todo = set(), list(roots)
    while todo:
        mod, name = todo.pop()
        if (mod, name) not in reached and name in defs.get(mod, ()):
            reached.add((mod, name))
            todo += _reads(defs[mod][name], mod, defs, binds[mod], member)
    unreached = sorted(f"{mod}.{name}" for mod, names in defs.items()
                       for name, node in names.items()
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and (mod, name) not in reached)
    stray = [name for name in unreached if name not in UNREACHED_BY_DESIGN]
    assert not stray, f"reached by no route: {stray}"
    assert unreached == sorted(UNREACHED_BY_DESIGN)


# functions of the package that call themselves, each with what bounds
# its depth; every other search keeps its own stack, so no input passes
# Python's recursion limit there
RECURSIVE_BY_DESIGN = {
    "eihom._place": "one level per cover vertex of the pattern: at most "
                    "--bound",
    "eihom._betas": "one level per color of a beta; its colors are disjoint "
                    "sets of the at most --bound cover blocks",
    "eihom._allocations": "one level per beta, a tuple of disjoint sets of "
                          "the at most --bound cover blocks",
    "eihom._fill": "one level per (class, cell) slot; classes are sets of "
                   "the at most --bound cover vertices, cells sets of classes",
    "reductions.wedge_classification.rec": "one level per wedge; only "
                                           "verify suites reach it, on fixed "
                                           "inputs",
    "reductions.gadget_walks.rec": "one level per edge of a walk; only "
                                   "verify suites reach it, on fixed gadgets",
    "reductions.longest_edge_disjoint_cycle.rec": "one level per edge of a "
                                                  "walk; only verify suites "
                                                  "reach it, on fixed gadgets",
}


def _self_calling(node, scope):
    """The qualified names of the functions under ``node``, nested ones and
    methods too, that call themselves by name."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{scope}.{child.name}"
            if isinstance(child, ast.FunctionDef) and any(
                    isinstance(n, ast.Call) and child.name in (
                        getattr(n.func, "id", None),
                        getattr(n.func, "attr", None))
                    for n in ast.walk(child)):
                out.append(name)
            out += _self_calling(child, name)
        else:  # nested defs inside if, for, with and try blocks too
            out += _self_calling(child, scope)
    return out


def test_no_search_recurses_on_its_input():
    src = Path(O.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        found += _self_calling(ast.parse(path.read_text()), path.stem)
    stray = [name for name in found if name not in RECURSIVE_BY_DESIGN]
    assert not stray, f"recursive, with no stack of their own: {stray}"
    assert sorted(found) == sorted(RECURSIVE_BY_DESIGN)


class TestWeighted:
    def test_all_ones_match_unweighted(self):
        rng = random.Random(3)
        for _ in range(10):
            g = rand_graph(rng, 5)
            gw = Graph(g.n, g.edges, weight={e: 1 for e in g.edges})
            assert O.count_edginj_weighted(P2, gw) == O.count_edginj(P2, g)

    def test_single_edge(self):
        gw = Graph(2, [(0, 1)], weight={(0, 1): 5})
        assert O.count_edginj_weighted(K2, gw) == 10

    def test_triangle_into_weighted_k4(self):
        # every K4 edge lies in two triangles: sum of products is 2*2 + 2*1
        w = {e: (2 if e == (0, 1) else 1) for e in K4.edges}
        gw = Graph(4, K4.edges, weight=w)
        assert O.count_edginj_weighted(make_pattern("C", 3), gw) == 2 * 3 * 6

    def test_missing_weights(self):
        with pytest.raises(ValueError):
            O.count_edginj_weighted(K2, K4)


C4_TWO_COLORS = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], k=2,
                      color={(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 3): 2})


class TestMatchings:
    def test_c4(self):
        assert O.count_matchings(make_pattern("C", 4), 2) == 2

    def test_empty_matching(self):
        assert O.count_matchings(K4, 0) == 1

    def test_colorful_requires_colors(self):
        with pytest.raises(ValueError):
            O.count_matchings(K4, 2, colorful=True)

    def test_colorful_c4(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                   color={(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}, k=2)
        # alternating colors leave only same-color disjoint pairs
        assert O.count_matchings(c4, 2, colorful=True) == 0
        c4b = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                    color={(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 3): 2}, k=2)
        assert O.count_matchings(c4b, 2, colorful=True) == 2

    def test_colorful_inclusion_exclusion(self):
        # the identity behind the color-removal reduction
        rng = random.Random(4)
        for _ in range(10):
            n, k = rng.randrange(3, 6), rng.randrange(1, 4)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.6]
            if len(edges) < k:
                continue
            color = {e: rng.randrange(1, k + 1) for e in edges}
            if len(set(color.values())) < k:
                continue
            g = Graph(n, edges, color=color, k=k)
            want = O.count_matchings(g, k, colorful=True)
            got = 0
            for r in range(k + 1):
                for sub in itertools.combinations(range(1, k + 1), r):
                    keep = [e for e in edges if color[e] in sub]
                    got += (-1) ** (k - r) * O.count_matchings(Graph(n, keep), k)
            assert got == want

    @pytest.mark.parametrize("run,want,charge", [
        # C_4's edges (0,1), (0,3), (1,2), (2,3) at k = 2: the root tries the
        # first 3 (the last leaves no room for a second), and the first 3
        # then try the 3, 2 and 1 edges after them
        (lambda: O.count_matchings(make_pattern("C", 4), 2), 2, 9),
        # each color class holds 2 edges: the root and both its children
        # try 2
        (lambda: O.count_matchings(C4_TWO_COLORS, 2, colorful=True), 2, 6),
        # every matching tries the edges after its last one: 4 for the empty
        # one, 3 + 2 + 1 + 0 for the single edges and 0 + 1 for the pairs
        (lambda: O.matchings_profile(make_pattern("C", 4), [0], 4),
         {(0, 0): 1, (1, 1): 2, (1, 0): 2, (2, 1): 2}, 11),
        # at most one edge: only the empty matching tries the 4 edges
        (lambda: O.matchings_profile(make_pattern("C", 4), [0], 1),
         {(0, 0): 1, (1, 1): 2, (1, 0): 2}, 4),
    ])
    def test_edges_tried_are_charged(self, monkeypatch, run, want, charge):
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", str(charge))
        assert run() == want
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", str(charge - 1))
        with pytest.raises(CapExceeded, match=f"edges exceed cap {charge - 1}$"):
            run()

    def test_wedge_packings_vs_line_matchings(self):
        rng = random.Random(5)
        for _ in range(8):
            g = rand_graph(rng, 6)
            for k in range(0, 4):
                direct = O.count_edginj(make_pattern("kP2", k), g) if k else 1
                lg_matchings = O.count_matchings(line_graph(g), k)
                assert direct == 2 ** k * factorial(k) * lg_matchings


class TestPerfectMatchings:
    def test_k4(self):
        assert O.count_perfect_matchings(K4) == 3

    def test_odd_order(self):
        assert O.count_perfect_matchings(K3) == 0

    def test_collar(self):
        c = make_pattern("collar", 2)
        assert O.count_perfect_matchings(c) == 1
        stripped = c.remove_vertices([0, c.n - 1])
        assert O.count_perfect_matchings(stripped) == 9

    def test_matches_matching_count(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randrange(0, 13)
            g = rand_graph(rng, n, rng.random())
            want = O.count_matchings(g, n // 2) if n % 2 == 0 else 0
            assert O.count_perfect_matchings(g) == want

    def test_disjoint_union_past_63_vertices(self):
        # the count of a disjoint union is the product of the parts' counts
        rng = random.Random(12)
        for _ in range(4):
            edges, off, want = [], 0, 1
            for _ in range(16):
                p = rand_graph(rng, 2 * rng.randrange(2, 6), 0.5)
                # plant a perfect matching so that no factor is zero
                p = Graph(p.n, set(p.edges) | {(i, i + 1)
                                               for i in range(0, p.n, 2)})
                edges += [(u + off, v + off) for u, v in p.edges]
                off += p.n
                want *= O.count_perfect_matchings(p)
            assert off > 63 and want > 1
            assert O.count_perfect_matchings(Graph(off, edges)) == want

    def test_cap_bounds_memo_states(self, monkeypatch):
        k8 = make_pattern("K", 8)
        assert O.count_perfect_matchings(k8) == 105
        monkeypatch.setenv("EICOUNT_PERFMATCH_CAP", "5")
        with pytest.raises(CapExceeded):
            O.count_perfect_matchings(k8)

    def test_ladder_is_fibonacci(self):
        # the 2 x n ladder has F(n + 1) perfect matchings.  Forced moves
        # come from the neighbours of the last matched pair, so ten times
        # the rungs take about 20 times the CPU time; scanning every vertex
        # for the least degree at each step takes about 200 times as long
        # (22 ms on 150 rungs, 4.5 s on 1,500, Python 3.11)
        def cpu(n):
            g = Graph(2 * n, [(i, n + i) for i in range(n)]
                      + [(r + i, r + i + 1) for r in (0, n)
                         for i in range(n - 1)])
            a, b = 1, 1
            for _ in range(n - 1):
                a, b = b, a + b
            start = time.process_time()
            assert O.count_perfect_matchings(g) == b
            return time.process_time() - start

        assert cpu(1500) < 60 * min(cpu(150) for _ in range(3))

    @pytest.mark.parametrize("name,states,want", [
        ("full-1", 2, 1), ("both-ends-1", 5, 3), ("full-2", 4, 1),
        ("both-ends-2", 8, 9), ("full-3", 6, 1), ("both-ends-3", 11, 27),
        ("full-4", 8, 1), ("both-ends-4", 14, 81),
        ("pipeline-K4", 354, 22600), ("pipeline-prism", 922, 2501200)])
    def test_collar_memo_states(self, monkeypatch, name, states, want):
        # the memo sizes on the collar suite's instances (its collars without
        # an end have odd order and no search), as a branching rule that
        # scans every vertex at every step reaches them, so PERFMATCH_CAP
        # trips on the same inputs
        kind, _, arg = name.rpartition("-")
        if kind == "pipeline":
            g = K4 if arg == "K4" else Graph(6, [
                (0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                (0, 3), (1, 4), (2, 5)])
            gp = triangle_expand(g)
            g = replace_matching_with_collars(
                gp, [e for e in gp.edges if e[0] // 3 != e[1] // 3], 2)
        else:
            g = make_pattern("collar", int(arg))
            if kind == "both-ends":
                g = g.remove_vertices([0, g.n - 1])
        monkeypatch.setenv("EICOUNT_PERFMATCH_CAP", str(states))
        assert O.count_perfect_matchings(g) == want
        monkeypatch.setenv("EICOUNT_PERFMATCH_CAP", str(states - 1))
        with pytest.raises(CapExceeded):
            O.count_perfect_matchings(g)

    def test_hinted_branching_reaches_the_full_scan_states(self, monkeypatch):
        # the states the counter memoises are those of the rule that scans
        # every vertex: match the least vertex of degree 1 while one is
        # left, then branch on the least vertex of minimum degree
        def full_scan_states(g):
            states = set()

            def visit(alive):
                if not alive or alive in states:
                    return
                states.add(alive)
                while alive:
                    degs = [(g.masks[v] & alive).bit_count()
                            for v in range(g.n) if alive >> v & 1]
                    vs = [v for v in range(g.n) if alive >> v & 1]
                    low = [v for v, d in zip(vs, degs) if d <= 1]
                    v = low[0] if low else vs[degs.index(min(degs))]
                    nbrs = g.masks[v] & alive
                    if not nbrs:
                        return
                    alive &= ~(1 << v)
                    if low:
                        alive &= ~nbrs
                        continue
                    for u in range(g.n):
                        if nbrs >> u & 1:
                            visit(alive & ~(1 << u))
                    return

            visit((1 << g.n) - 1)
            return states

        seen = set()
        branches = _kernels_py._pm_branches

        def recording(alive, adj, hint):
            seen.add(alive)
            return branches(alive, adj, hint)

        monkeypatch.setattr(_kernels_py, "_pm_branches", recording)
        rng = random.Random(13)
        for _ in range(60):
            n = 2 * rng.randrange(1, 8)
            g = rand_graph(rng, n, rng.choice([0.2, 0.35, 0.5]))
            seen.clear()
            O.count_perfect_matchings(g)
            assert seen == full_scan_states(g)

    def test_long_sparse_hosts_do_not_recurse(self):
        # 3,000 vertices: far deeper than Python's recursion limit
        assert O.count_perfect_matchings(make_pattern("P", 2999)) == 1
        assert O.count_perfect_matchings(make_pattern("C", 3000)) == 2


class TestOddEdgeSets:
    def test_k4(self):
        assert O.count_odd_edge_sets_enum(K4) == 8
        assert O.count_odd_edge_sets_enum(K4, by_cardinality=True) == \
            [0, 0, 3, 4, 0, 0, 1]

    def test_k2_k3(self):
        assert O.count_odd_edge_sets_enum(K2) == 1
        assert O.count_odd_edge_sets_enum(K3) == 0


class TestDerived:
    def test_edge_disjoint_cycles(self):
        assert O.count_edge_disjoint(K4, 3, "cycle") == 4
        assert O.count_edge_disjoint(K3, 4, "cycle") == 0

    def test_edge_disjoint_paths(self):
        assert O.count_edge_disjoint(K3, 2, "path") == 3

    def test_partition_sum_examples(self):
        assert count_edginj_via_partition_sum(K2, K4) == 2 * K4.m
        assert count_edginj_via_partition_sum(P2, K3) == 6

    def test_partition_sum_random(self):
        rng = random.Random(6)
        for _ in range(25):
            h = rand_graph(rng, rng.randrange(1, 6))
            g = rand_graph(rng, rng.randrange(1, 7))
            assert count_edginj_via_partition_sum(h, g) == O.count_edginj(h, g)


class TestIsomorphism:
    def test_c4_k22(self):
        assert O.is_isomorphic(make_pattern("C", 4), make_pattern("Kab", 2, 2))

    def test_k3_p2(self):
        assert not O.is_isomorphic(K3, P2)

    def test_line_of_barbed_wire(self):
        for ell in (1, 2, 3):
            assert O.is_isomorphic(line_graph(make_pattern("barbed", ell)),
                                   make_pattern("collar", ell))

    def test_deep_graphs_are_searched(self):
        # one stack entry per vertex, past the default recursion limit 1000
        c = make_pattern("C", 1200)
        assert O.is_isomorphic(c, c)

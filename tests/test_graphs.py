import gc
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eicount.config import CapExceeded
from eicount.graphs import (Graph, bfs_layers, bits, isolated_parts,
                            line_graph, make_pattern, minimum_vertex_cover,
                            parse_graph, quotient, serialize_graph, subdivide,
                            vertex_cover_number, weight_gadget)
from reference import all_partitions


def random_graph_strategy(max_n=7, p=0.5):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = list(itertools.combinations(range(n), 2))
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph(n, [e for e, keep in zip(pairs, mask) if keep])
    return build()


class TestMasks:
    @given(random_graph_strategy(max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_bits_are_the_neighbours(self, g):
        nbrs = [set() for _ in range(g.n)]
        for u, v in g.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert len(g.masks) == g.n
        for v in range(g.n):
            assert {u for u in range(g.n) if g.masks[v] >> u & 1} == nbrs[v]
            assert g.degree(v) == len(nbrs[v])
            for u in range(g.n):
                assert g.has_edge(v, u) == (u in nbrs[v])

    def test_masks_are_the_only_adjacency(self):
        g = make_pattern("C", 5)
        assert not hasattr(g, "adj")
        assert "_adj" not in Graph.__slots__

    def test_built_once(self):
        g = make_pattern("C", 70)
        assert g.masks is g.masks
        assert g.masks[0] == (1 << 1) | (1 << 69)


class TestGraph:
    def test_negative_vertex_count(self):
        with pytest.raises(ValueError, match="negative vertex count -3"):
            Graph(-3, [])

    def test_components(self):
        g = Graph(7, [(4, 1), (1, 6), (2, 5)])
        assert g.components() == [[0], [1, 4, 6], [2, 5], [3]]
        assert Graph(0, []).components() == []

    @pytest.mark.parametrize("shape", ["path", "isolated"])
    def test_components_grow_linearly(self, shape):
        # 20 times the vertices take 20-30 times the CPU time; reading the
        # components off whole-host bitmasks is quadratic and takes over 100
        # times as long (a path: 3 ms on 2,000 vertices, 0.44 s on 40,000,
        # Python 3.11).  The garbage
        # collector is held off while timing: its passes over the objects
        # the rest of the test run keeps alive grow with that run, not with
        # the graph
        def cpu(n):
            if shape == "path":
                g, want = Graph(n, [(i, i + 1) for i in range(n - 1)]), [
                    list(range(n))]
            else:
                g, want = Graph(n, []), [[v] for v in range(n)]
            best = float("inf")
            for _ in range(3):
                gc.collect()
                gc.disable()
                try:
                    start = time.process_time()
                    got = g.components()
                    best = min(best, time.process_time() - start)
                finally:
                    gc.enable()
                assert got == want
            return best

        assert cpu(40000) < 60 * cpu(2000)

    def test_components_match_bfs_layers(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randrange(0, 80)
            g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                          if rng.random() < 1.5 / max(n, 1)])
            want, rest = [], (1 << n) - 1
            while rest:
                comp = 0
                for layer in bfs_layers(g.masks, rest & -rest):
                    comp |= layer
                rest &= ~comp
                want.append(list(bits(comp)))
            assert g.components() == want


class TestConstructors:
    def test_windmill(self):
        g = make_pattern("W", 3)
        assert (g.n, g.m) == (7, 9)

    def test_substar(self):
        g = make_pattern("SS", 2)
        assert (g.n, g.m) == (5, 4)

    def test_collar(self):
        g = make_pattern("collar", 2)
        assert (g.n, g.m) == (10, 15)
        # the ends u = 0 and v = n - 1 are the only degree-1 vertices
        assert [v for v in range(g.n) if g.degree(v) == 1] == [0, 9]

    def test_barbed_wire_counts(self):
        for ell in range(1, 4):
            g = make_pattern("barbed", ell)
            assert (g.n, g.m) == (4 * ell + 3, 4 * ell + 2)

    def test_weight_gadget_sizes(self):
        g1 = make_pattern("Gi", 1)
        assert (g1.n, g1.m) == (2, 1)
        g2, a, b, marked = weight_gadget(2)
        assert g2 == make_pattern("Gi", 2)
        assert (g2.n, g2.m) == (6, 6)
        assert (a, b) == (2, 3) and marked == ((0, 1), (4, 5))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            make_pattern("frobnicate", 2)
        with pytest.raises(ValueError):
            make_pattern("C", 2)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 1)], color={(0, 1): 3}, k=2)
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 2)], weight={(0, 1): 1})


class TestLineGraph:
    def test_p2_gives_k2(self):
        assert line_graph(make_pattern("P", 2)) == make_pattern("K", 2)

    def test_c4_self(self):
        lg = line_graph(make_pattern("C", 4))
        assert (lg.n, lg.m) == (4, 4)

    @given(random_graph_strategy())
    @settings(max_examples=60, deadline=None)
    def test_size_formula(self, g):
        lg = line_graph(g)
        assert lg.n == g.m
        assert lg.m == sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in range(g.n))

    @staticmethod
    def pairwise(g):
        es = g.edges
        return [(i, j) for i, j in itertools.combinations(range(len(es)), 2)
                if set(es[i]) & set(es[j])]

    @given(random_graph_strategy(max_n=9), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_definition(self, g, isolated):
        g = Graph(g.n + isolated, g.edges)
        lg = line_graph(g)
        assert lg == Graph(g.m, self.pairwise(g))

    @pytest.mark.parametrize("g", [
        make_pattern("Kab", 1, 6), make_pattern("Kab", 6, 1),
        make_pattern("kK2", 5), Graph(4, []), Graph(0, []),
    ])
    def test_stars_and_matchings(self, g):
        assert line_graph(g) == Graph(g.m, self.pairwise(g))


class TestSubdivide:
    def test_k2_becomes_path(self):
        from eicount.oracles import is_isomorphic
        s = subdivide(make_pattern("K", 2), 3)
        assert (s.n, s.m) == (5, 4)
        assert is_isomorphic(s, make_pattern("P", 4))

    def test_counts(self):
        g = make_pattern("K", 4)
        s = subdivide(g, 2)
        assert s.n == g.n + 2 * g.m
        assert s.m == 3 * g.m

    def test_components_and_cycles_preserved(self):
        g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])
        s = subdivide(g, 2)
        assert len(s.components()) == len(g.components())

    def test_colored_needs_policy(self):
        g = Graph(2, [(0, 1)], color={(0, 1): 1}, k=1)
        with pytest.raises(ValueError):
            subdivide(g, 1)


class TestQuotient:
    def test_singletons_identity(self):
        for g in [make_pattern("K", 4), make_pattern("C", 5), Graph(3, [])]:
            assert quotient(g, [[v] for v in range(g.n)]) == g

    def test_wedge_endpoint_merge(self):
        p2 = make_pattern("P", 2)  # 0-1-2
        assert quotient(p2, [[0, 2], [1]]) is None

    def test_loop_degenerate(self):
        assert quotient(make_pattern("K", 2), [[0, 1]]) is None

    @given(random_graph_strategy(max_n=7), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_matches_definition(self, g, rng):
        parts = list(all_partitions(range(g.n)))
        blocks = rng.choice(parts)
        ordered = sorted(tuple(sorted(b)) for b in blocks)
        who = {v: i for i, b in enumerate(ordered) for v in b}
        images = [tuple(sorted((who[u], who[v]))) for u, v in g.edges]
        q = quotient(g, blocks)
        loop = any(a == b for a, b in images)
        collision = len(set(images)) < len(images)
        if loop or collision:
            assert q is None
        else:
            assert q == Graph(len(ordered), images)

    @pytest.mark.parametrize("blocks, message", [
        ([[0, 1], [], [2]], "empty block"),
        ([[0, 1], [1, 2]], "disjoint and in range"),
        ([[0, 1], [2, 3]], "disjoint and in range"),
        ([[-1], [0, 1, 2]], "disjoint and in range"),
        ([[0, 1]], "cover the vertex set")])
    def test_rejects_non_partitions(self, blocks, message):
        with pytest.raises(ValueError, match=message):
            quotient(make_pattern("P", 2), blocks)


class TestIsolatedParts:
    @given(st.integers(1, 9), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_components(self, n, rng):
        # sparse, so that isolated vertices and edges are common
        g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                      if rng.random() < 0.15])
        comps = g.components()
        isolated, pairs = isolated_parts(g)
        assert isolated == sorted(c[0] for c in comps if len(c) == 1)
        assert pairs == sorted(v for c in comps if len(c) == 2 for v in c)


class TestVertexCover:
    def test_k3(self):
        assert vertex_cover_number(make_pattern("K", 3)) == 2

    def test_weak_matching(self):
        assert vertex_cover_number(make_pattern("kK2", 3), weak=True) == 0

    def test_weak_wedges(self):
        assert vertex_cover_number(make_pattern("kP2", 3), weak=True) == 3

    @pytest.mark.parametrize("leaves", [24, 40])
    def test_large_star_small_cover(self, leaves):
        # the cap bounds subsets tried, not vertices: 2 subsets find {0}
        assert minimum_vertex_cover(make_pattern("Kab", 1, leaves)) == {0}

    def test_cap_counts_subsets_tried(self, monkeypatch):
        # K_4 tries 1 + 4 + 6 subsets of sizes 0..2, then finds {0, 1, 2}
        monkeypatch.setenv("EICOUNT_VERTEX_COVER_CAP", "12")
        assert minimum_vertex_cover(make_pattern("K", 4)) == {0, 1, 2}
        monkeypatch.setenv("EICOUNT_VERTEX_COVER_CAP", "11")
        with pytest.raises(CapExceeded, match="VERTEX_COVER_CAP"):
            minimum_vertex_cover(make_pattern("K", 4))

    def test_dense_pattern_hits_the_cap(self, monkeypatch):
        monkeypatch.setenv("EICOUNT_VERTEX_COVER_CAP", "1000")
        with pytest.raises(CapExceeded, match="1001 subsets exceed cap 1000"):
            vertex_cover_number(make_pattern("K", 12))

    @given(random_graph_strategy(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_weak_le_exact(self, g):
        assert vertex_cover_number(g, weak=True) <= vertex_cover_number(g)

    @given(random_graph_strategy(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_weak_equals_exact_after_removal(self, g):
        drop = {v for comp in g.components()
                if len(comp) == 2 and g.has_edge(comp[0], comp[1]) for v in comp}
        stripped = g.remove_vertices(drop)
        assert vertex_cover_number(g, weak=True) == vertex_cover_number(stripped)


class TestTextFormat:
    def test_k2(self):
        assert parse_graph("v 2\ne 0 1") == make_pattern("K", 2)

    def test_colored(self):
        g = parse_graph("v 3\ne 0 1 c=1\ne 1 2 c=2")
        assert g.color == {(0, 1): 1, (1, 2): 2}

    def test_duplicate_edge(self):
        with pytest.raises(ValueError):
            parse_graph("v 2\ne 0 1\ne 1 0")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(ValueError, match=r"^line 5: duplicate edge \(0, 2\)$"):
            parse_graph("v 3\ne 0 1\n# note\ne 0 2\ne 2 0\n")

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError, match=r"^line 1: negative vertex count -3$"):
            parse_graph("v -3\n")

    def test_colors_must_cover_every_edge(self):
        with pytest.raises(ValueError,
                           match=r"^colors must cover every edge or none$"):
            parse_graph("v 3\ne 0 1 c=1\ne 1 2\n")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            parse_graph("v 2\ne 0 5")

    def test_self_loop_reports_line(self):
        with pytest.raises(ValueError, match=r"^line 3: self-loop at 2$"):
            parse_graph("v 3\ne 0 1\ne 2 2\n")

    @pytest.mark.parametrize("attrs, again", [
        ("w=1 w=9", "'w=9'"), ("c=1 c=2", "'c=2'"), ("c=1 w=2 c=1", "'c=1'")])
    def test_repeated_attribute(self, attrs, again):
        with pytest.raises(ValueError,
                           match=rf"^line 3: repeated attribute {again}$"):
            parse_graph(f"v 3\ne 1 2 w=1\ne 0 1 {attrs}\n")

    def test_comments_and_weights(self):
        g = parse_graph("# hello\nv 2\ne 0 1 c=1 w=7\n")
        assert g.weight == {(0, 1): 7}

    @given(random_graph_strategy())
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    def test_serialize_stable(self):
        g = make_pattern("collar", 1)
        text = serialize_graph(g)
        assert serialize_graph(parse_graph(text)) == text

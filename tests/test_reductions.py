import gc
import itertools
import random
import time
from math import comb, factorial

import pytest

from eicount import oracles as O
from eicount.exact import falling_factorial, interpolate
from eicount.graphs import Graph, make_pattern, weight_gadget
from eicount.reductions import (build_Gr, build_cycle_gadget,
                                build_star_host, build_unweighted_substitute,
                                count_matchings_via_apex,
                                count_matchings_via_star,
                                count_matchings_via_wedges,
                                count_simple_cycles_via_gadget,
                                cycle_gadget_polynomial,
                                ec_cycles_via_paths, gadget_walks, hub_sides,
                                longest_edge_disjoint_cycle,
                                min_weighted_edge_separation,
                                unweight_cycles, wedge_alpha_oracle,
                                wedge_classification, wedge_packings_in_hub)

C6 = Graph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
PATH5 = Graph(5, [(0, 3), (3, 1), (1, 4), (4, 2)])
# degree-1 and isolated left vertices exercise the hub construction corners
RAGGED = Graph(5, [(0, 3), (3, 1), (1, 4)])
K4 = make_pattern("K", 4)

BIP = [("c6", C6), ("path5", PATH5), ("ragged", RAGGED)]


class TestHubSides:
    def test_each_component_picks_its_side(self):
        # two K_{1,3} stars with centres 0 and 5: the left side is a centre
        # in one component and the leaves in the other
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (5, 7)])
        assert hub_sides(g) == ([0, 5], [1, 2, 3, 4, 6, 7])

    def test_least_vertex_side_when_both_fit(self):
        for name, g in BIP:
            assert hub_sides(g)[0] == [0, 1, 2], name
        assert hub_sides(PATH5) == ([0, 1, 2], [3, 4])

    def test_other_side_when_only_it_fits(self):
        # K_{3,1}: the side {0, 1, 2} leaves vertex 3 with degree 3
        assert hub_sides(make_pattern("Kab", 3, 1)) == ([3], [0, 1, 2])

    def test_unfit_component_named(self):
        # an edge, then K_{3,3} on vertices 2..7
        g = Graph(8, [(0, 1)] + [(a, b) for a in (2, 3, 4) for b in (5, 6, 7)])
        with pytest.raises(ValueError, match="component of vertex 2 "):
            hub_sides(g)

    def test_odd_cycle(self):
        with pytest.raises(ValueError, match="host is not bipartite"):
            hub_sides(make_pattern("C", 5))

    def test_grows_linearly(self):
        # 20 times the vertices take about 20 times the CPU time (a path:
        # 1.8 ms on 2,000 vertices, 34 ms on 40,000, Python 3.11); testing
        # every pair of left vertices for two shared neighbours is
        # quadratic (0.12 s on 2,000 vertices, 2.8 s on 8,000).  The garbage
        # collector is held off while timing, as in the component test of
        # test_graphs.py
        def cpu(n):
            g = Graph(n, [(i, i + 1) for i in range(n - 1)])
            want = list(range(0, n, 2)), list(range(1, n, 2))
            best = float("inf")
            for _ in range(3):
                gc.collect()
                gc.disable()
                try:
                    start = time.process_time()
                    got = hub_sides(g)
                    best = min(best, time.process_time() - start)
                finally:
                    gc.enable()
                assert got == want
            return best

        assert cpu(40000) < 60 * cpu(2000)


class TestBuildGr:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        gr = build_Gr(g, 0)
        # a path hub - left - right
        assert (gr.n, gr.m) == (3, 2)

    def test_vertex_count(self):
        for r in range(4):
            gr = build_Gr(C6, r)
            assert gr.n == 3 + 0 + 1 + r

    def test_shared_neighbors_rejected(self):
        bad = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(ValueError):
            build_Gr(bad, 0)

    def test_right_degree_rejected(self):
        # each side of K_{3,3} holds vertices of degree 3
        with pytest.raises(ValueError):
            build_Gr(make_pattern("Kab", 3, 3), 0)

    def test_documented_ids(self):
        # RAGGED: right vertex 3 joins left 0 and 1, right vertex 4 hangs
        # off left 1, left 2 is isolated
        gr = build_Gr(RAGGED, 1)
        assert gr.n == 6
        assert gr.edges == ((0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (3, 5))
        # special 1 hangs off the hub; the left vertices 2, 3, 4 follow
        assert gr.masks[1] == 1 and gr.masks[0] == 0b11110
        star = build_star_host(RAGGED)
        assert star.n == 7
        assert star.edges == ((0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (3, 4),
                              (4, 6))
        assert star.masks[2] == 1 << 1 and star.has_edge(0, 1)

    def test_simple(self):
        for name, g in BIP:
            for r in (0, 2):
                gr = build_Gr(g, r)
                assert len(set(gr.edges)) == gr.m


class TestWedgeStats:
    def test_alpha_k0(self):
        assert wedge_classification(build_Gr(C6, 0), 0) == {(0, 0, 0): 1}

    def test_alpha_matches_matchings(self):
        for name, g in BIP:
            for k in range(0, 4):
                alpha = wedge_alpha_oracle(g, k)
                assert alpha.get((k, 0), 0) == \
                    O.count_matchings(g, k) * 2 ** k * factorial(k)

    def test_alpha_zero_beyond_k(self):
        alpha = wedge_alpha_oracle(C6, 2)
        assert all(gd + b == 2 for gd, b in alpha)

    def test_beta_identity_by_double_enumeration(self):
        g = C6
        g0 = build_Gr(g, 0)
        n_left = g0.degree(0)
        alphas = {}
        for j in range(0, 4):
            alphas.update(wedge_alpha_oracle(g, j))
        for k in range(0, 4):
            for r in range(0, 4):
                gr = build_Gr(g, r)
                lhs = O.count_edginj(make_pattern("kP2", k), gr) if k else 1
                rhs = 0
                for t in range(k + 1):
                    for gd in range(k - t + 1):
                        b = k - t - gd
                        rhs += (alphas.get((gd, b), 0) * comb(k, gd + b)
                                * int(falling_factorial(n_left + r - gd, 2 * t)))
                assert lhs == rhs
                assert lhs == wedge_packings_in_hub(g0, r, k)


class TestWedgePipeline:
    def test_matches_oracle(self):
        for name, g in BIP:
            for k in range(0, 4):
                assert count_matchings_via_wedges(g, k) == \
                    O.count_matchings(g, k), (name, k)

    def test_k1_counts_edges(self):
        assert count_matchings_via_wedges(C6, 1) == C6.m


class TestApexPipeline:
    def test_c4(self):
        c4 = make_pattern("C", 4)
        assert count_matchings_via_apex(c4, 2) == 2
        assert count_matchings_via_apex(c4, 1) == 4

    def test_matches_oracle(self):
        for name, g in BIP:
            for k in range(0, 3):
                assert count_matchings_via_apex(g, k) == \
                    O.count_matchings(g, k)

    def test_rejects_nonbipartite(self):
        with pytest.raises(ValueError):
            count_matchings_via_apex(make_pattern("K", 3), 1)


class TestStarPipeline:
    def test_matches_oracle(self):
        for name, g in BIP:
            for k in range(0, 3):
                assert count_matchings_via_star(g, k) == \
                    O.count_matchings(g, k)

    def test_single_edge(self):
        assert count_matchings_via_star(Graph(2, [(0, 1)]), 1) == 1

    @pytest.mark.parametrize("host", [make_pattern("K", 3),
                                      make_pattern("Kab", 3, 3)])
    def test_host_checked_at_k0(self, host):
        with pytest.raises(ValueError):
            count_matchings_via_star(host, 0)

    def test_host_simple(self):
        # the anchor end 2 is a leaf on 1, and 1 is a neighbour of the hub 0
        for name, g in BIP:
            host = build_star_host(g)
            assert len(set(host.edges)) == host.m, name
            assert host.masks[2] == 1 << 1 and host.has_edge(0, 1), name


def gadget_p(g, k, b):
    """The definition of the gadget polynomial at one point:
    p(b) = WEdgInj(C_6k, build_cycle_gadget(g, b)) / 12k."""
    gb, _ = build_cycle_gadget(g, b)
    q, r = divmod(O.count_edginj_weighted(make_pattern("C", 6 * k), gb),
                  12 * k)
    assert r == 0
    return q


def random_host(rng, n, p):
    return Graph(n, [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < p])


class TestCycleGadget:
    def test_size(self):
        gb, _ = build_cycle_gadget(K4, 1)
        assert gb.n == sum(2 * K4.degree(v) + 4 for v in range(K4.n))

    def test_separation(self):
        for g in (K4, make_pattern("C", 5)):
            for b in range(4):
                gb, weighted_edges = build_cycle_gadget(g, b)
                assert len(weighted_edges) == g.n
                if b != 1:
                    assert set(weighted_edges) == {
                        e for e, w in gb.weight.items() if w == b}
                assert min_weighted_edge_separation(gb, weighted_edges) == 5

    def test_p_integral(self):
        for b in range(3):
            gadget_p(K4, 3, b)  # asserts divisibility

    def test_k4_triangles(self):
        assert count_simple_cycles_via_gadget(K4, 3) == 4

    def test_triangle_free(self):
        assert count_simple_cycles_via_gadget(make_pattern("C", 5), 3) == 0

    def test_diamond(self):
        diamond = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert count_simple_cycles_via_gadget(diamond, 3) == \
            O.count_query("cycles", diamond, 3)

    @staticmethod
    def assert_interpolates(g, k):
        want = interpolate([(b, gadget_p(g, k, b)) for b in range(k + 1)])
        assert cycle_gadget_polynomial(g, k) == want

    def test_polynomial_matches_interpolation_k3(self):
        rng = random.Random(18)
        hosts = [Graph(0, []), Graph(4, []),
                 # triangle plus a 4-cycle: disconnected
                 Graph(7, [(0, 1), (1, 2), (0, 2),
                           (3, 4), (4, 5), (5, 6), (3, 6)])]
        hosts += [random_host(rng, rng.randrange(3, 7), 0.5)
                  for _ in range(30)]
        for g in hosts:
            self.assert_interpolates(g, 3)

    def test_polynomial_matches_interpolation_k4(self):
        rng = random.Random(19)
        for _ in range(6):
            self.assert_interpolates(random_host(rng, 5, 0.6), 4)

    def test_gadget_past_63_vertices(self):
        # two disjoint K4: a gadget on 4n + 4m = 80 vertices
        g = Graph(8, list(K4.edges) + [(u + 4, v + 4) for u, v in K4.edges])
        assert build_cycle_gadget(g, 1)[0].n == 80
        self.assert_interpolates(g, 3)
        assert count_simple_cycles_via_gadget(g, 3) == 8

    def test_k5_k4(self):
        k5 = make_pattern("K", 5)
        self.assert_interpolates(k5, 4)
        assert count_simple_cycles_via_gadget(k5, 4) == \
            O.count_query("cycles", k5, 4) == 15


class TestWeightedCycleIdentity:
    def test_weighted_equals_cycle_sum(self):
        # both sides by independent enumeration
        rng = random.Random(0)
        for _ in range(10):
            n = rng.randrange(3, 6)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.6]
            if not edges:
                continue
            w = {e: rng.randrange(0, 4) for e in edges}
            g = Graph(n, edges, weight=w)
            for k in (3, 4):
                lhs = O.count_edginj_weighted(make_pattern("C", k), g)
                rhs = 0
                nbrs = {v: [u for e in edges for u in e if v in e and u != v]
                        for v in range(n)}
                # enumerate edge-disjoint k-cycles directly as closed walks
                def walks(v, start, used, length, prod):
                    nonlocal rhs
                    if length == k:
                        if v == start:
                            rhs += prod
                        return
                    for u in nbrs[v]:
                        e = (min(u, v), max(u, v))
                        if e in used:
                            continue
                        used.add(e)
                        walks(u, start, used, length + 1, prod * w[e])
                        used.discard(e)
                for s in range(n):
                    walks(s, s, set(), 0, 1)
                # each unoriented unrooted cycle appears 2k times as a
                # rooted directed walk
                assert lhs == rhs


class TestUnweight:
    def test_gadget_walk_structure(self):
        for j in range(1, 4):
            walks = gadget_walks(j)
            assert len(walks) == j
            assert all(l == 2 * j - 1 for l, _ in walks)
            _, _, _, marked = weight_gadget(j)
            assert len(marked) == j
            for e in marked:
                assert sum(1 for _, es in walks if e in es) == 1

    def test_gadget_longest_cycle(self):
        # gluing two of the j edge-disjoint terminal walks gives the longest
        # edge-disjoint cycle, of length 2(2j-1); the single-edge gadget has
        # no cycle at all
        assert longest_edge_disjoint_cycle(make_pattern("Gi", 1)) == 0
        for j in (2, 3):
            assert longest_edge_disjoint_cycle(make_pattern("Gi", j)) == 4 * j - 2

    def test_w1_factor_three(self):
        c4w = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                    weight={e: 1 for e in [(0, 1), (1, 2), (2, 3), (0, 3)]})
        gp, lhs, rhs = unweight_cycles(c4w, 4)
        assert lhs == rhs
        assert lhs == 3 * O.count_edginj(make_pattern("C", 4),
                                         Graph(4, c4w.edges))

    def test_w2(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
                  weight={(0, 1): 2, (1, 2): 1, (2, 3): 1, (0, 3): 1, (0, 2): 1})
        gp, lhs, rhs = unweight_cycles(g, 4)
        assert lhs == rhs

    def test_zero_weight_rejected(self):
        g = Graph(2, [(0, 1)], weight={(0, 1): 0})
        with pytest.raises(ValueError):
            build_unweighted_substitute(g, 1)

    def test_weight_above_w_max_rejected(self):
        # a gadget of w_max routes cannot stand for a heavier edge
        g = Graph(2, [(0, 1)], weight={(0, 1): 3})
        with pytest.raises(ValueError, match="w_max=2"):
            build_unweighted_substitute(g, 2)
        assert build_unweighted_substitute(g, 3).n == 2 + weight_gadget(3)[0].n

    def test_k_below_four_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)], weight={(0, 1): 1, (1, 2): 1})
        with pytest.raises(ValueError):
            unweight_cycles(g, 3)


class TestEcPaths:
    def test_k4(self):
        assert ec_cycles_via_paths(K4, 3) == 4

    def test_c5(self):
        assert ec_cycles_via_paths(make_pattern("C", 5), 5) == 1
        assert ec_cycles_via_paths(make_pattern("C", 5), 3) == 0

    def test_k_outside_validated_range_rejected(self):
        # on K5 the probe assembly gives 36 instead of 30 for k = 6
        k5 = make_pattern("K", 5)
        assert O.count_query("ec-cycles", k5, 6) == 30
        for k in (2, 6, 7):
            with pytest.raises(ValueError):
                ec_cycles_via_paths(k5, k)

    def test_random_corpus(self):
        rng = random.Random(1)
        for _ in range(12):
            n = rng.randrange(4, 7)
            g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                          if rng.random() < 0.6])
            k = rng.choice([3, 4, 5])
            assert ec_cycles_via_paths(g, k) == \
                O.count_query("ec-cycles", g, k)

import itertools
import random

import pytest

from eicount import oracles as O
from eicount.graphs import Graph, edge, line_graph, make_pattern, subdivide
from eicount.linegraphs import (DecompositionError, DigitOverflowError,
                                count_odd_edge_sets,
                                count_perfmatch_3regular_line,
                                decompose_3regular_line, extract_digits_base_r,
                                perfmatch_via_line_reduction,
                                replace_matching_with_collars, triangle_expand)

K4 = make_pattern("K", 4)
PRISM = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                  (0, 3), (1, 4), (2, 5)])
K33 = make_pattern("Kab", 3, 3)
PETERSEN = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                      (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                      (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])

CUBIC = [("k4", K4), ("prism", PRISM), ("k33", K33), ("petersen", PETERSEN)]


def random_cubic(rng, n):
    """Connected simple cubic graph on an even n >= 4: a random Hamiltonian
    cycle plus a random perfect matching that avoids the cycle's edges."""
    order = list(range(n))
    rng.shuffle(order)
    cycle = {edge(order[i], order[(i + 1) % n]) for i in range(n)}
    while True:
        rng.shuffle(order)
        matching = {edge(*order[i:i + 2]) for i in range(0, n, 2)}
        if not matching & cycle:
            return Graph(n, cycle | matching)


def random_connected(rng, n, m):
    """Connected graph: a random recursive tree plus random extra edges."""
    es = {(rng.randrange(v), v) for v in range(1, n)}
    while len(es) < m:
        es.add(edge(*rng.sample(range(n), 2)))
    return Graph(n, es)


def between_triangles(gp):
    """The edges of a triangle expansion that join two different triangles."""
    return [e for e in gp.edges if e[0] // 3 != e[1] // 3]


def odd_edge_sets_closed_form(g):
    """2^(m - n + c), or 0 when some component has odd order."""
    comps = g.components()
    if any(len(c) % 2 for c in comps):
        return 0
    return 2 ** (g.m - g.n + len(comps))


class TestDecompose:
    def test_subdivided_k4(self):
        lg = line_graph(subdivide(K4, 1))
        m, t, down = decompose_3regular_line(lg)
        assert len(t) == 4 and len(m) == 6
        assert O.is_isomorphic(down, K4)

    def test_small_graph_rejected(self):
        with pytest.raises(DecompositionError):
            decompose_3regular_line(K4)

    def test_not_3regular(self):
        with pytest.raises(DecompositionError):
            decompose_3regular_line(make_pattern("C", 6))

    def test_not_decomposable(self):
        # 3-cube: 3-regular, triangle-free, 8 vertices
        cube = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6),
                         (6, 7), (4, 7), (0, 4), (1, 5), (2, 6), (3, 7)])
        with pytest.raises(DecompositionError):
            decompose_3regular_line(cube)

    def test_roundtrip_expansion(self):
        for name, g in CUBIC:
            gp = triangle_expand(g)
            m, t, down = decompose_3regular_line(gp)
            assert O.is_isomorphic(down, g), name

    def test_packing_and_matching_brute_force(self):
        # every triangle of the host is packed and the leftover edges form a
        # perfect matching, checked over all vertex triples
        rng = random.Random(7)
        hosts = []
        for _ in range(12):
            g = random_cubic(rng, rng.choice((4, 6, 8, 10)))
            hosts += [triangle_expand(g), line_graph(subdivide(g, 1))]
        for host in hosts:
            matching, triangles, down = decompose_3regular_line(host)
            packed = {frozenset(t) for t in triangles}
            for tri in itertools.combinations(range(host.n), 3):
                if all(host.has_edge(a, b)
                       for a, b in itertools.combinations(tri, 2)):
                    assert frozenset(tri) in packed
            ends = sorted(v for e in matching for v in e)
            assert ends == list(range(host.n))
            assert len(packed) == len(triangles) == down.n == host.n // 3
            assert down.m == len(matching)


class TestOddEdgeSets:
    def test_k4(self):
        assert count_odd_edge_sets(K4) == 8

    def test_k2(self):
        assert count_odd_edge_sets(make_pattern("K", 2)) == 1

    def test_isolated_vertex(self):
        g = Graph(3, [(0, 1)])
        assert count_odd_edge_sets(g) == 0

    def test_matches_enumeration(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randrange(2, 8)
            g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                          if rng.random() < 0.55])
            if g.m > 20:
                continue
            assert count_odd_edge_sets(g) == O.count_odd_edge_sets_enum(g)

    @pytest.mark.parametrize("n,m", [(1400, 5600), (5600, 22400)])
    def test_large_connected_closed_form(self, n, m):
        g = random_connected(random.Random(m), n, m)
        assert count_odd_edge_sets(g) == odd_edge_sets_closed_form(g)

    def test_large_with_odd_component(self):
        g = random_connected(random.Random(2), 1400, 5600)
        es = list(g.edges) + [(1400, 1401), (1400, 1402), (1401, 1402)]
        assert count_odd_edge_sets(Graph(1403, es)) == 0


class TestAlgorithm:
    def test_below_five_vertices_brute_force(self):
        assert count_perfmatch_3regular_line(K4) == 3

    def test_line_graphs_of_subdivided_cubic(self):
        for name, g in CUBIC:
            lg = line_graph(subdivide(g, 1))
            assert lg.n <= 30
            got = count_perfmatch_3regular_line(lg)
            want = O.count_perfect_matchings(lg)
            assert got == want, name

    @pytest.mark.parametrize("n", [500, 1000])
    def test_large_subdivided_cubic_closed_form(self, n):
        g = random_cubic(random.Random(n), n)
        lg = line_graph(subdivide(g, 1))
        assert lg.n == 3 * n
        assert count_perfmatch_3regular_line(lg) == odd_edge_sets_closed_form(g)

    def test_subdivided_k4_value(self):
        lg = line_graph(subdivide(K4, 1))
        assert count_perfmatch_3regular_line(lg) == 8

    def test_per_cardinality_bijection(self):
        # odd edge-sets of the base graph by size == perfect matchings of
        # the expansion by number of matching edges used
        for name, g in CUBIC[:2]:
            gp = triangle_expand(g)
            mset = set(between_triangles(gp))
            nbrs = {v: [u for e in gp.edges for u in e if v in e and u != v]
                    for v in range(gp.n)}
            per_card = O.count_odd_edge_sets_enum(g, by_cardinality=True)
            counts = {}

            def rec(alive, t):
                if not alive:
                    counts[t] = counts.get(t, 0) + 1
                    return
                v = min(alive)
                for u in nbrs[v]:
                    if u in alive:
                        e = (min(u, v), max(u, v))
                        rec(alive - {u, v}, t + (e in mset))

            rec(frozenset(range(gp.n)), 0)
            assert counts == {t: c for t, c in enumerate(per_card) if c}, name


class TestExpansion:
    def test_k4_size(self):
        gp = triangle_expand(K4)
        assert (gp.n, gp.m) == (12, 18)

    def test_between_triangle_edges_match_base_edges(self):
        # the edges between triangles form a perfect matching, one edge per
        # edge of g, and contracting the triangles maps them onto E(g)
        rng = random.Random(11)
        bases = CUBIC + [("rand", random_cubic(rng, n)) for n in (4, 6, 8, 10)]
        for name, g in bases:
            gp = triangle_expand(g)
            matching = between_triangles(gp)
            assert len(matching) == g.m, name
            assert sorted(v for e in matching for v in e) == list(range(gp.n)), name
            assert sorted(edge(u // 3, v // 3) for u, v in matching) == list(g.edges), name

    def test_needs_cubic(self):
        with pytest.raises(ValueError):
            triangle_expand(make_pattern("C", 5))

    def test_matchings_selected_by_m_edges(self):
        # perfect matchings of g == perfect matchings of the expansion with
        # exactly |V(g)|/2 matching edges
        for name, g in CUBIC[:2]:
            per_card = O.count_odd_edge_sets_enum(g, by_cardinality=True)
            assert per_card[g.n // 2] == O.count_perfect_matchings(g), name


class TestCollars:
    def test_single_edge_becomes_collar(self):
        got = replace_matching_with_collars(make_pattern("K", 2), [(0, 1)], 1)
        assert O.is_isomorphic(got, make_pattern("collar", 1))

    def test_degree_bound(self):
        gp = triangle_expand(K4)
        b = replace_matching_with_collars(gp, between_triangles(gp), 1)
        assert max(b.degree(v) for v in range(b.n)) == 4

    def test_not_a_matching(self):
        with pytest.raises(ValueError):
            replace_matching_with_collars(K4, [(0, 1), (1, 2)], 1)


class TestDigits:
    def test_example(self):
        assert extract_digits_base_r(23, 9, 1) == [2, 5]

    def test_zero(self):
        assert extract_digits_base_r(0, 9, 3) == [0, 0, 0, 0]

    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(40):
            radix = rng.randrange(2, 30)
            nd = rng.randrange(0, 6)
            digits = [rng.randrange(0, radix) for _ in range(nd + 1)]
            total = sum(d * radix ** (nd - t) for t, d in enumerate(digits))
            assert extract_digits_base_r(total, radix, nd) == digits

    def test_too_large(self):
        with pytest.raises(ValueError):
            extract_digits_base_r(1000, 9, 1)


class TestPipeline:
    def test_k4(self):
        assert perfmatch_via_line_reduction(K4, 2) == 3

    def test_prism(self):
        assert perfmatch_via_line_reduction(PRISM, 2) == \
            O.count_perfect_matchings(PRISM)

    def test_prism_ell4(self):
        # the 162-vertex collar encoding of the prism
        assert perfmatch_via_line_reduction(PRISM, 4) == \
            O.count_perfect_matchings(PRISM)

    def test_overflow_reported(self):
        with pytest.raises(DigitOverflowError):
            perfmatch_via_line_reduction(K4, 1)

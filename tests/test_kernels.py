"""The counting kernels of eicount._kernels_py, checked against plain
enumeration and through the oracles that call them."""

import itertools
import random
import tracemalloc

from eicount import _backend, _kernels_py
from eicount import oracles as O
from eicount.graphs import Graph, bfs_layers, bits, make_pattern


def rand_graph(rng, n, p=0.5):
    return Graph(n, [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < p])


def brute_maps(h, g, mode, weight=None):
    """Sum over all maps V(h) -> V(g) of the kernel's contribution, by
    trying every vertex assignment."""
    total = 0
    for img in itertools.product(range(g.n), repeat=h.n):
        if mode == _kernels_py.MODE_EMB and len(set(img)) < h.n:
            continue
        images = [tuple(sorted((img[u], img[v]))) for u, v in h.edges]
        if not all(g.has_edge(*e) for e in images):
            continue
        if mode == _kernels_py.MODE_EDGINJ and len(set(images)) < h.m:
            continue
        contrib = 1
        if weight is not None:
            for e in images:
                contrib *= weight[e]
        total += contrib
    return total


def test_count_maps_matches_enumeration():
    # random patterns and hosts are often disconnected, which exercises
    # the per-component anchors and unreachable host vertices
    rng = random.Random(0)
    for _ in range(40):
        h = rand_graph(rng, rng.randrange(1, 5))
        g = rand_graph(rng, rng.randrange(1, 7))
        assert O.count_hom(h, g) == brute_maps(h, g, _kernels_py.MODE_HOM)
        assert O.count_emb(h, g) == brute_maps(h, g, _kernels_py.MODE_EMB)
        assert O.count_edginj(h, g) == brute_maps(h, g,
                                                  _kernels_py.MODE_EDGINJ)
    # C_5 and C_6 have anchor distances 2 and 3, so they prune with balls
    # of that radius
    for k, n in [(5, 5), (5, 6), (5, 7), (6, 5), (6, 6), (6, 7)]:
        h = make_pattern("C", k)
        g = rand_graph(rng, n, p=0.4)
        for mode, count in [(_kernels_py.MODE_HOM, O.count_hom),
                            (_kernels_py.MODE_EMB, O.count_emb),
                            (_kernels_py.MODE_EDGINJ, O.count_edginj)]:
            assert count(h, g) == brute_maps(h, g, mode)


def test_weighted_count_maps_matches_enumeration():
    rng = random.Random(1)
    for _ in range(25):
        h = rand_graph(rng, rng.randrange(1, 5))
        g = rand_graph(rng, rng.randrange(2, 7))
        weight = {e: rng.randrange(0, 5) for e in g.edges}
        gw = Graph(g.n, g.edges, weight=weight)
        assert O.count_edginj_weighted(h, gw) == brute_maps(
            h, g, _kernels_py.MODE_EDGINJ, weight)


def test_bfs_layers_from_several_sources():
    # paths 0-1-2-3 and 4-5, an isolated vertex 6
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5)])
    layers = list(bfs_layers(g.masks, (1 << 0) | (1 << 5)))
    assert [list(bits(layer)) for layer in layers] == [[0, 5], [1, 4], [2], [3]]
    assert list(bfs_layers(g.masks, 1 << 6)) == [1 << 6]
    assert list(bfs_layers(g.masks, 0)) == []
    assert list(bits(0)) == []
    assert list(bits((1 << 70) | 0b101)) == [0, 2, 70]


def test_distance_pruning_memory_is_linear_in_the_host():
    g = Graph(1000, [(i, i + 1) for i in range(999)])
    tracemalloc.start()
    try:
        got = O.count_edginj(make_pattern("P", 2), g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == sum(g.degree(v) * (g.degree(v) - 1) for v in range(g.n))
    assert peak < 4 * 2**20


def test_weighted_oracle_memory_is_linear_in_the_host():
    n = 1000
    weight = {(i, i + 1): 1 + i % 3 for i in range(n - 1)}
    g = Graph(n, list(weight), weight=weight)
    tracemalloc.start()
    try:
        got = O.count_edginj_weighted(make_pattern("P", 2), g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an ordered pair of distinct edges at a middle vertex weighs w1 * w2
    assert got == 2 * sum(weight[(i - 1, i)] * weight[(i, i + 1)]
                          for i in range(1, n - 1))
    assert peak < 4 * 2**20


def test_count_maps_past_63_vertices():
    g = Graph(70, [(i, i + 1) for i in range(69)])
    h = make_pattern("P", 2)
    assert O.count_edginj(h, g) == sum(
        g.degree(v) * (g.degree(v) - 1) for v in range(g.n))


def test_oracles_run_on_the_python_kernels():
    assert _backend.BACKEND == "python"
    k4 = make_pattern("K", 4)
    assert O.count_perfect_matchings(k4) == 3
    assert O.count_edginj(make_pattern("P", 2), k4) == 24
    assert O.count_odd_edge_sets_enum(k4) == 8

"""The counting kernels of eicount._kernels_py, checked against plain
enumeration and through the oracles that call them."""

import itertools
import random

from eicount import _backend, _kernels_py
from eicount import oracles as O
from eicount.graphs import Graph, make_pattern


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
    # the per-component anchors and unreachable host distances
    rng = random.Random(0)
    for _ in range(40):
        h = rand_graph(rng, rng.randrange(1, 5))
        g = rand_graph(rng, rng.randrange(1, 7))
        assert O.count_hom(h, g) == brute_maps(h, g, _kernels_py.MODE_HOM)
        assert O.count_emb(h, g) == brute_maps(h, g, _kernels_py.MODE_EMB)
        assert O.count_edginj(h, g) == brute_maps(h, g,
                                                  _kernels_py.MODE_EDGINJ)


def test_weighted_count_maps_matches_enumeration():
    rng = random.Random(1)
    for _ in range(25):
        h = rand_graph(rng, rng.randrange(1, 5))
        g = rand_graph(rng, rng.randrange(2, 7))
        weight = {e: rng.randrange(0, 5) for e in g.edges}
        gw = Graph(g.n, g.edges, weight=weight)
        assert O.count_edginj_weighted(h, gw) == brute_maps(
            h, g, _kernels_py.MODE_EDGINJ, weight)


def test_hop_distances_mark_unreachable_with_n():
    # two paths 0-1-2 and 3-4 plus an isolated vertex 5
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    dist = O._hop_distances(g)
    assert dist[0 * 6 + 2] == dist[2 * 6 + 0] == 2
    assert dist[3 * 6 + 4] == 1
    assert dist[0 * 6 + 3] == dist[5 * 6 + 0] == 6
    assert all(dist[v * 6 + v] == 0 for v in range(6))


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

"""The counting kernels of eicount._kernels_py, checked against plain
enumeration and through the oracles that call them."""

import itertools
import random
import tracemalloc

import pytest

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


def c70_with_chords():
    """A 70-vertex host: the cycle C_70, 15 random chords and the chords
    (i, i + 2) for even i in 56..66, which close triangles past bit 63."""
    rng = random.Random(8)
    chords = {tuple(sorted(rng.sample(range(70), 2))) for _ in range(15)}
    chords |= {(i, i + 2) for i in range(56, 68, 2)}
    return Graph(70, set(make_pattern("C", 70).edges) | chords)


def unrooted_count(h, g, mode, weighted=False):
    """The plain kernel search, with no symmetry breaking."""
    _, parents, anchor, adist = O._pattern_encoding(h)
    weights = None
    if weighted:
        weights = [{} for _ in range(g.n)]
        for (u, v), w in g.weight.items():
            weights[u][v] = weights[v][u] = w
    return _kernels_py.count_maps(g.n, g.masks, mode, parents, anchor, adist,
                                  weights, rooted=False)


def cycle_hosts():
    """Hosts with edge weights 0..3: no vertex, one vertex, five isolated
    vertices, a triangle beside a chorded 4-cycle, 14 random graphs (often
    disconnected) and the 70-vertex host."""
    rng = random.Random(3)
    hosts = [Graph(0, []), Graph(1, []), Graph(5, []),
             Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6),
                       (3, 6), (3, 5)])]
    hosts += [rand_graph(rng, rng.randrange(2, 9), rng.choice([0.3, 0.5, 0.8]))
              for _ in range(14)]
    hosts.append(c70_with_chords())
    return [Graph(g.n, g.edges, weight={e: rng.randrange(0, 4) for e in g.edges})
            for g in hosts]


def test_rooted_cycle_counts_match_the_unrooted_search():
    # the oracles count C_L with the root edge least among the image edges;
    # the plain search and, on small hosts, plain enumeration must agree.
    # The cycles are labelled at random, so the root is any pattern edge.
    rng = random.Random(5)
    nonzero = brute = 0
    for g in cycle_hosts():
        plain = Graph(g.n, g.edges)
        for k in range(3, 9):
            label = rng.sample(range(k), k)
            h = Graph(k, [(label[i], label[i - 1]) for i in range(k)])
            small = g.n ** k <= 5000
            for mode, weighted, count in [
                    (_kernels_py.MODE_EMB, False, O.count_emb),
                    (_kernels_py.MODE_EDGINJ, False, O.count_edginj),
                    (_kernels_py.MODE_EDGINJ, True, O.count_edginj_weighted)]:
                got = count(h, g if weighted else plain)
                if g.n:
                    assert got == unrooted_count(h, g, mode, weighted)
                if small:
                    assert got == brute_maps(h, g, mode,
                                             g.weight if weighted else None)
                    brute += 1
                nonzero += got > 0
    assert nonzero > 60 and brute > 150


def record_kernel_calls(monkeypatch):
    """Wrap the oracles' binding of ``_backend.run_kernel`` and return the
    list of (kernel name, rooted) pairs it sees."""
    calls = []

    def recording(name, *args):
        if name == "count_maps":
            calls.append((name, args[-1]))
        return _backend.run_kernel(name, *args)

    monkeypatch.setattr(O, "run_kernel", recording)
    return calls


def test_only_cycles_take_the_rooted_search(monkeypatch):
    calls = record_kernel_calls(monkeypatch)
    rng = random.Random(4)
    g = rand_graph(rng, 6, 0.6)
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    unrooted = [(make_pattern("C", k), _kernels_py.MODE_HOM, O.count_hom)
                for k in (3, 4, 5)]
    for h in [two_triangles, make_pattern("P", 3), make_pattern("Kab", 1, 3)]:
        unrooted += [(h, _kernels_py.MODE_EMB, O.count_emb),
                     (h, _kernels_py.MODE_EDGINJ, O.count_edginj)]
    # an isolated edge is searched only under embeddings
    unrooted.append((make_pattern("P", 1), _kernels_py.MODE_EMB, O.count_emb))
    for h, mode, count in unrooted:
        calls.clear()
        assert count(h, g) == brute_maps(h, g, mode)
        assert calls == [("count_maps", False)]
    for mode, count in [(_kernels_py.MODE_HOM, O.count_hom),
                        (_kernels_py.MODE_EDGINJ, O.count_edginj)]:
        calls.clear()
        assert count(make_pattern("P", 1), g) == brute_maps(
            make_pattern("P", 1), g, mode)
        assert calls == []
    for count in (O.count_emb, O.count_edginj):
        calls.clear()
        count(make_pattern("C", 4), g)
        assert calls == [("count_maps", True)]


def with_isolated_parts(h, i, t):
    """h plus i isolated vertices and t isolated edges."""
    n = h.n + i
    return Graph(n + 2 * t, [*h.edges, *((n + 2 * j, n + 2 * j + 1)
                                         for j in range(t))])


def test_isolated_parts_count_in_closed_form():
    rng = random.Random(5)
    cores = [Graph(0, []), make_pattern("P", 1), make_pattern("P", 2),
             make_pattern("C", 3)]
    hosts = [Graph(0, []), Graph(1, []), Graph(3, []), make_pattern("P", 1),
             make_pattern("K", 3)]
    hosts += [rand_graph(rng, rng.randrange(2, 6)) for _ in range(4)]
    modes = [(_kernels_py.MODE_HOM, O.count_hom),
             (_kernels_py.MODE_EMB, O.count_emb),
             (_kernels_py.MODE_EDGINJ, O.count_edginj)]
    for core in cores:
        for i, t in [(1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 1)]:
            h = with_isolated_parts(core, i, t)
            if h.n > 6:
                continue
            for g in hosts:
                for mode, count in modes:
                    assert count(h, g) == brute_maps(h, g, mode), (h, g, mode)
                weight = {e: rng.randrange(0, 4) for e in g.edges}
                gw = Graph(g.n, g.edges, weight=weight)
                assert O.count_edginj_weighted(h, gw) == brute_maps(
                    h, g, _kernels_py.MODE_EDGINJ, weight), (h, g)


def test_isolated_parts_leave_the_search(monkeypatch):
    # C_4 + K_1 + K_2 searches only its C_4 under hom and edge-injective
    # maps (rooted as a cycle under the latter); embeddings and weighted
    # maps keep the K_2 in the search
    positions = []

    def recording(name, *args):
        if name == "count_maps":
            positions.append((len(args[3]), args[-1]))
        return _backend.run_kernel(name, *args)

    monkeypatch.setattr(O, "run_kernel", recording)
    h = with_isolated_parts(make_pattern("C", 4), 1, 1)
    g = rand_graph(random.Random(6), 8, 0.6)
    gw = Graph(g.n, g.edges, weight=dict.fromkeys(g.edges, 2))
    for count, host, searched in [(O.count_hom, g, (4, False)),
                                  (O.count_edginj, g, (4, True)),
                                  (O.count_emb, g, (6, False)),
                                  (O.count_edginj_weighted, gw, (6, False))]:
        positions.clear()
        count(h, host)
        assert positions == [searched]
    positions.clear()
    assert O.count_edginj(with_isolated_parts(Graph(0, []), 3, 2), g) == \
        g.n ** 3 * 2 * g.m * 2 * (g.m - 1)
    assert positions == []


def test_rooted_mode_needs_a_root_edge():
    g = make_pattern("K", 4)
    # P_2 placed ends first: position 1 has no parent, so no root edge
    parents = [(), (), (0, 1)]
    with pytest.raises(ValueError, match="parents"):
        _kernels_py.count_maps(g.n, g.masks, _kernels_py.MODE_EDGINJ,
                               parents, [-1, -1, 0], [0, 0, 1], None, True)
    _, parents, anchor, adist = O._pattern_encoding(make_pattern("C", 4))
    with pytest.raises(ValueError, match="injective"):
        _kernels_py.count_maps(g.n, g.masks, _kernels_py.MODE_HOM, parents,
                               anchor, adist, None, True)
    # the second triangle of C_3 + C_3 starts at a position with no parent
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    _, parents, anchor, adist = O._pattern_encoding(two_triangles)
    assert parents[1] == (0,)
    with pytest.raises(ValueError, match="connected"):
        _kernels_py.count_maps(g.n, g.masks, _kernels_py.MODE_EMB, parents,
                               anchor, adist, None, True)

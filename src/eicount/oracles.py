"""Brute-force reference counters.

Everything here is exact and exponential; results are plain Python ints and
serve as the ground truth against which the polynomial-time algorithms and
reduction pipelines are tested.  Hot enumeration loops run in the
pure-Python kernels of eicount._kernels_py, called through
eicount._backend.run_kernel.
"""

from __future__ import annotations

from functools import lru_cache
from math import perm

from ._backend import run_kernel
from ._kernels_py import MODE_EDGINJ, MODE_EMB, MODE_HOM
from .config import check_cap
from .graphs import (Graph, all_partitions, bfs_layers, bits, isolated_parts,
                     make_pattern, quotient)


# `eicount verify all` runs 194 searches over 23 distinct patterns, so the
# cache spares 171 plan builds there
@lru_cache(maxsize=256)
def _search_plan(h: Graph):
    """The map search's plan for pattern h, built once per pattern.

    A connected-greedy vertex order gives per-position placed neighbours
    (parents) and an anchor (first position of the component) plus the
    pattern distance to it, used for distance-based pruning.  Returns
    (parents, anchor, adist, cycle), the first three tuples indexed by
    position; cycle tells whether h takes the rooted search: it is
    2-regular on at least 3 vertices and connected (every position after
    the first has a parent)."""
    order = []
    placed = 0
    while len(order) < h.n:
        best = None
        for v in range(h.n):
            if placed >> v & 1:
                continue
            key = ((h.masks[v] & placed).bit_count(), h.degree(v), -v)
            if best is None or key > best[0]:
                best = (key, v)
        order.append(best[1])
        placed |= 1 << best[1]
    pos_of = {v: i for i, v in enumerate(order)}
    parents = tuple(tuple(sorted(pos_of[u] for u in bits(h.masks[v])
                                 if pos_of[u] < i))
                    for i, v in enumerate(order))
    anchor = [-1] * h.n
    adist = [0] * h.n
    seen = 0
    for i, root in enumerate(order):
        if seen >> root & 1:
            continue
        for d, layer in enumerate(bfs_layers(h.masks, 1 << root)):
            seen |= layer
            for v in bits(layer):
                if v != root:
                    anchor[pos_of[v]] = i
                    adist[pos_of[v]] = d
    cycle = (h.n >= 3 and all(m.bit_count() == 2 for m in h.masks)
             and all(parents[1:]))
    return parents, tuple(anchor), tuple(adist), cycle


def _peeled_factor(h: Graph, g: Graph, mode: int, weighted: bool):
    """Split off the pattern components whose maps count in closed form.

    Returns (rest of the pattern, factor): the map count of ``h`` is the
    factor times the count of the rest.  An isolated vertex has no edge to
    collide with, so it adds a factor n, or under embeddings one of the
    vertices the rest leaves free.  An isolated edge adds 2m under
    homomorphisms and, unweighted, 2(m - |E(rest)| - j) for the j-th such
    edge under edge-injective maps, since the rest uses exactly |E(rest)|
    host edges; weighted or vertex-injective, its count depends on where the
    rest lands, so it stays in the search."""
    isolated, pairs = isolated_parts(h)
    if not (mode == MODE_HOM or (mode == MODE_EDGINJ and not weighted)):
        pairs = []
    if isolated or pairs:
        h = h.remove_vertices(isolated + pairs)
    if mode == MODE_EMB:
        factor = perm(g.n - h.n, len(isolated)) if h.n <= g.n else 0
    else:
        factor = g.n ** len(isolated)
    for j in range(len(pairs) // 2):
        factor *= 2 * g.m if mode == MODE_HOM else max(0, 2 * (g.m - h.m - j))
    return h, factor


def _count_maps(h: Graph, g: Graph, mode: int, weighted: bool = False) -> int:
    if h.n == 0:
        return 1
    if g.n == 0:
        return 0
    weights = None
    if weighted:
        if g.weight is None:
            raise ValueError("host has no edge weights")
        weights = [{} for _ in range(g.n)]
        for (u, v), w in g.weight.items():
            weights[u][v] = w
            weights[v][u] = w
    h, factor = _peeled_factor(h, g, mode, weighted)
    if factor == 0 or h.n == 0:
        return factor
    parents, anchor, adist, cycle = _search_plan(h)
    # the rooted search keeps one map per orbit of Aut(C_L) (2L elements)
    # and orientation of its least image edge
    rooted = mode != MODE_HOM and cycle
    count = run_kernel("count_maps", g.n, g.masks, mode, parents, anchor,
                       adist, weights, rooted)
    return factor * (h.m * count if rooted else count)


def count_hom(h: Graph, g: Graph) -> int:
    """Number of homomorphisms from h to g, by exhaustive enumeration."""
    return _count_maps(h, g, MODE_HOM)


def count_emb(h: Graph, g: Graph) -> int:
    """Number of vertex-injective homomorphisms (embeddings)."""
    return _count_maps(h, g, MODE_EMB)


def count_edginj(h: Graph, g: Graph) -> int:
    """Number of edge-injective homomorphisms: distinct pattern edges must
    land on distinct host edges (vertices may collide)."""
    return _count_maps(h, g, MODE_EDGINJ)


def count_edginj_weighted(h: Graph, g: Graph) -> int:
    """Sum over edge-injective maps of the product of image-edge weights."""
    return _count_maps(h, g, MODE_EDGINJ, weighted=True)


# ---------------------------------------------------------------------------
# matchings

def count_matchings(g: Graph, k: int, colorful: bool = False) -> int:
    """Number of k-edge matchings; with ``colorful``, matchings picking
    exactly one edge from each of the k color classes."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if colorful:
        if g.color is None:
            raise ValueError("colorful matchings need an edge-colored host")
        if k != g.k:
            raise ValueError(f"host declares {g.k} colors, asked for {k}")
        classes = [g.color_classes()[c] for c in range(1, g.k + 1)]
        classes.sort(key=len)

        def rec_col(i, used):
            if i == len(classes):
                return 1
            total = 0
            for u, v in classes[i]:
                if used & (1 << u) or used & (1 << v):
                    continue
                total += rec_col(i + 1, used | (1 << u) | (1 << v))
            return total

        return rec_col(0, 0)

    edges = g.edges

    def rec(start, rem, used):
        if rem == 0:
            return 1
        total = 0
        for i in range(start, len(edges) - rem + 1):
            u, v = edges[i]
            if used & (1 << u) or used & (1 << v):
                continue
            total += rec(i + 1, rem - 1, used | (1 << u) | (1 << v))
        return total

    return rec(0, k, 0)


def matchings_profile(g: Graph, special=()):
    """Tally all matchings of ``g`` by (size, #special vertices covered).

    Returns a dict (size, covered) -> count; the empty matching is included.
    Used by the wedge pipeline to factor out interchangeable pendant edges.
    """
    smask = 0
    for v in special:
        smask |= 1 << v
    edges = g.edges
    out = {}

    def rec(start, size, used):
        key = (size, (used & smask).bit_count())
        out[key] = out.get(key, 0) + 1
        for i in range(start, len(edges)):
            u, v = edges[i]
            if used & (1 << u) or used & (1 << v):
                continue
            rec(i + 1, size + 1, used | (1 << u) | (1 << v))

    rec(0, 0, 0)
    return out


def count_perfect_matchings(g: Graph) -> int:
    """Exact perfect-matching count by branching on a minimum-degree vertex,
    memoised on the unmatched-vertex set; ``PERFMATCH_CAP`` bounds the
    number of memoised states."""
    if g.n % 2:
        return 0
    return run_kernel("count_perfect_matchings", g.n, g.masks)


def count_odd_edge_sets_enum(g: Graph, by_cardinality: bool = False):
    """Edge subsets with every vertex degree odd, by exhaustive enumeration
    over all 2^|E| subsets; optionally tallied by subset size."""
    check_cap("EDGE_SUBSET_CAP", g.m)
    eu = [e[0] for e in g.edges]
    ev = [e[1] for e in g.edges]
    return run_kernel("count_odd_edge_sets", g.n, eu, ev, by_cardinality)


# ---------------------------------------------------------------------------
# derived counts

def count_edge_disjoint(g: Graph, k: int, kind: str) -> int:
    """Edge-disjoint k-cycles (closed walks with distinct edges, unrooted and
    unoriented) or k-paths, via the edge-injective oracle."""
    from .exact import exact_quotient
    if kind == "cycle":
        if k < 3:
            raise ValueError("cycles need k >= 3")
        return exact_quotient(count_edginj(make_pattern("C", k), g), 2 * k,
                              "cycle orbit size must divide exactly")
    if kind == "path":
        if k < 1:
            raise ValueError("paths need k >= 1")
        return exact_quotient(count_edginj(make_pattern("P", k), g), 2,
                              "path orbit size must divide exactly")
    raise ValueError(f"unknown kind {kind!r}")


def count_simple_cycles(g: Graph, k: int) -> int:
    """Simple (vertex-distinct) k-cycles, via the embedding oracle."""
    from .exact import exact_quotient
    if k < 3:
        raise ValueError("cycles need k >= 3")
    return exact_quotient(count_emb(make_pattern("C", k), g), 2 * k,
                          "cycle orbit size must divide exactly")


def count_edginj_via_partition_sum(h: Graph, g: Graph) -> int:
    """Edge-injective homomorphism count as the sum over edge-injective,
    loop-free vertex partitions of the pattern of the embedding counts of
    their quotients.  Independent cross-check for :func:`count_edginj`."""
    check_cap("PATTERN_CAP", h.n)
    total = 0
    for blocks in all_partitions(range(h.n)):
        q = quotient(h, blocks)
        if q is not None:
            total += count_emb(q, g)
    return total


# ---------------------------------------------------------------------------
# isomorphism

def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Brute-force isomorphism search with degree pruning."""
    check_cap("ISO_CAP", max(g1.n, g2.n))
    if g1.n != g2.n or g1.m != g2.m:
        return False
    deg1 = sorted(g1.degree(v) for v in range(g1.n))
    deg2 = sorted(g2.degree(v) for v in range(g2.n))
    if deg1 != deg2:
        return False
    order = sorted(range(g1.n), key=lambda v: -g1.degree(v))
    mapping = [-1] * g1.n
    used = [False] * g2.n

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for w in range(g2.n):
            if used[w] or g1.degree(v) != g2.degree(w):
                continue
            ok = True
            for u in range(g1.n):
                if mapping[u] >= 0 and g1.has_edge(v, u) != g2.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return extend(0)

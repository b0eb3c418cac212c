"""Brute-force reference counters.

Everything here is exact and exponential; results are plain Python ints and
serve as the ground truth against which the polynomial-time algorithms and
reduction pipelines are tested.  Hot enumeration loops run in the
pure-Python kernels of eicount._kernels_py, called through
eicount._backend.run_kernel.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import perm

from ._backend import run_kernel
from ._kernels_py import MODE_EDGINJ, MODE_EMB, MODE_HOM
from .config import charge, left
from .graphs import Graph, bfs_layers, bits, isolated_parts, make_pattern


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
    order = _search_order(h)
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


def _search_order(h: Graph):
    """The connected-greedy vertex order of the map search: each position
    takes the unplaced vertex with the most placed neighbours, then the
    highest degree, then the least index.  A heap keyed (-placed
    neighbours, -degree, v) holds the candidates; placing a vertex pushes
    a new entry for each unplaced neighbour, and an entry whose count is
    stale is skipped when popped, so the order takes O((n + m) log n)."""
    degree = [m.bit_count() for m in h.masks]
    placed_nbrs = [0] * h.n
    heap = [(0, -degree[v], v) for v in range(h.n)]
    heapify(heap)
    order = []
    done = [False] * h.n
    while heap:
        c, _, v = heappop(heap)
        if done[v] or -c != placed_nbrs[v]:
            continue
        order.append(v)
        done[v] = True
        for u in bits(h.masks[v]):
            if not done[u]:
                placed_nbrs[u] += 1
                heappush(heap, (-placed_nbrs[u], -degree[u], u))
    return order


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

def _matchings(edges, k, classes=None, smaller=False):
    """Yield (size, bitmask of the covered vertices) for each k-edge
    matching, taking one edge from each of ``classes`` in turn when given;
    with ``smaller``, every matching of at most k edges, the empty one too.

    The search keeps its own stack.  The edges each node tries, summed over
    the nodes, are charged to ``SEARCH_VOLUME_CAP``: the search counts them
    down from what the cap has left and charges them once, when it ends or
    when they run out, which raises :class:`CapExceeded`."""
    edges = [1 << u | 1 << v for u, v in edges]  # the bitmasks of the ends
    if classes is not None:
        classes = [[1 << u | 1 << v for u, v in c] for c in classes]
    budget = volume = left("SEARCH_VOLUME_CAP")
    stack = [(0, 0, 0)]  # (size, first edge it may add, covered vertices)
    while stack:
        size, start, used = stack.pop()
        if smaller or size == k:
            yield size, used
        if size == k:
            continue
        if classes is not None:
            pool, start, stop = classes[size], 0, len(classes[size])
        else:  # leave room for the k - size edges still to add
            pool = edges
            stop = len(edges) if smaller else len(edges) - (k - size) + 1
        tried = range(start, stop)
        budget -= len(tried)
        if budget < 0:  # past what the cap had left, so the charge raises
            charge("SEARCH_VOLUME_CAP", volume - budget, "edges")
        for i in reversed(tried):  # popped in increasing order
            if not used & pool[i]:
                stack.append((size + 1, i + 1, used | pool[i]))
    charge("SEARCH_VOLUME_CAP", volume - budget, "edges")


def count_matchings(g: Graph, k: int, colorful: bool = False) -> int:
    """Number of k-edge matchings; with ``colorful``, matchings picking
    exactly one edge from each of the k color classes.  The edges the
    search tries are charged to ``SEARCH_VOLUME_CAP``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    classes = None
    if colorful:
        if g.color is None:
            raise ValueError("colorful matchings need an edge-colored host")
        if k != g.k:
            raise ValueError(f"host declares {g.k} colors, asked for {k}")
        classes = [g.color_classes()[c] for c in range(1, g.k + 1)]
        classes.sort(key=len)
    return sum(1 for _ in _matchings(g.edges, k, classes))


def matchings_profile(g: Graph, special, most: int):
    """Tally the matchings of at most ``most`` edges of ``g`` by (size,
    #special vertices covered).

    Returns a dict (size, covered) -> count; the empty matching is included.
    Used by the wedge pipeline to factor out interchangeable pendant edges.
    The edges the search tries are charged to ``SEARCH_VOLUME_CAP``.
    """
    smask = 0
    for v in special:
        smask |= 1 << v
    out = {}
    for size, used in _matchings(g.edges, most, smaller=True):
        key = (size, (used & smask).bit_count())
        out[key] = out.get(key, 0) + 1
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
    over all 2^|E| subsets; optionally tallied by subset size.
    ``EDGE_SUBSET_CAP`` bounds the subsets the kernel tabulates."""
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


# ---------------------------------------------------------------------------
# isomorphism

def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Brute-force isomorphism search with degree pruning.  Its search
    nodes, one per partial mapping extended, are charged to ``ISO_CAP``.

    The vertices of g1 are mapped in order of decreasing degree.  The
    candidates for the next one, v, are the unused vertices of g2 of its
    degree that are adjacent to the images of v's mapped neighbours and to
    no other image, tried in increasing order."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    deg1 = sorted(g1.degree(v) for v in range(g1.n))
    deg2 = sorted(g2.degree(v) for v in range(g2.n))
    if deg1 != deg2:
        return False
    order = sorted(range(g1.n), key=lambda v: -g1.degree(v))
    masks1, masks2 = g1.masks, g2.masks
    of_degree = {}  # degree -> bitmask of the g2 vertices that have it
    for w in range(g2.n):
        of_degree[g2.degree(w)] = of_degree.get(g2.degree(w), 0) | 1 << w
    mapping = [-1] * g1.n
    budget = left("ISO_CAP")
    nodes = 0
    # one entry per node: how many vertices of order are mapped, the
    # bitmasks of those and of their images, and the image of the last one;
    # mapping holds the images of the node's ancestors when it is popped
    stack = [(0, 0, 0, -1)]
    while stack:
        i, placed, image, w = stack.pop()
        nodes += 1
        if nodes > budget:  # past what the cap had left: raises
            charge("ISO_CAP", nodes, "search nodes")
        if i:
            mapping[order[i - 1]] = w
        if i == len(order):
            break
        v = order[i]
        nbrs = masks1[v] & placed
        need = nbrs.bit_count()
        cand = of_degree[g1.degree(v)] & ~image
        for u in bits(nbrs):
            cand &= masks2[mapping[u]]
        while cand:  # pushed from the top, so popped in increasing order
            w = cand.bit_length() - 1
            cand ^= 1 << w
            if (masks2[w] & image).bit_count() == need:
                stack.append((i + 1, placed | 1 << v, image | 1 << w, w))
    charge("ISO_CAP", nodes, "search nodes")
    return i == len(order)  # the search stopped at a complete mapping

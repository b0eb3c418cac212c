"""Simple undirected graphs with optional edge colors/weights, pattern
constructors, structural transformations and vertex-cover search.

Vertices are the dense integers ``0 .. n-1``; an edge is the sorted pair
``(u, v)``.  Graphs are immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
from math import factorial, perm

from .config import charge, left


# the normalized pairs of vertex ids below 64 made so far, one tuple each:
# every graph with such an edge holds that one tuple, so a process that
# keeps many small patterns keeps no tuple per edge of each
_PAIRS = {}


def edge(u: int, v: int) -> tuple[int, int]:
    """Normalize an unordered vertex pair; a pair of ids below 64 is the
    process's one tuple for it."""
    if u == v:
        raise ValueError(f"self-loop at {u}")
    e = (u, v) if u < v else (v, u)
    return _PAIRS.setdefault(e, e) if 0 <= e[0] and e[1] < 64 else e


def bits(mask: int):
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bfs_layers(masks, sources: int):
    """Breadth-first search over per-vertex neighbour bitmasks (such as
    ``Graph.masks``): yield ``sources`` and then, for d = 1, 2, ..., the
    bitmask of the vertices at hop distance exactly d from the nearest
    source, stopping once no new vertex is reached."""
    seen = frontier = sources
    while frontier:
        yield frontier
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier


class Graph:
    """Loop-free simple graph, optionally edge-colored and edge-weighted.

    The only neighbour structure is ``masks``, the cached per-vertex
    neighbour bitmasks; ``degree`` and ``has_edge`` read them.

    color maps every colored edge to an id in 1..k (k = declared color
    count); weight, if present, must be defined for every edge and be a
    nonnegative integer.
    """

    __slots__ = ("n", "edges", "color", "weight", "k", "_masks")

    def __init__(self, n, edges, color=None, weight=None, k=None):
        self.n = int(n)
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        es = sorted(edge(u, v) for (u, v) in edges)
        for e in es:
            if not (0 <= e[0] < self.n and 0 <= e[1] < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
        for a, b in zip(es, es[1:]):
            if a == b:
                raise ValueError(f"parallel edge {a}")
        self.edges = tuple(es)
        eset = set(self.edges)
        if color is not None:
            color = {edge(*e): int(c) for e, c in color.items()}
            if set(color) - eset:
                raise ValueError("color map mentions non-edges")
            self.k = int(k) if k is not None else (max(color.values()) if color else 0)
            for e, c in color.items():
                if not 1 <= c <= self.k:
                    raise ValueError(f"color {c} of edge {e} not in 1..{self.k}")
        else:
            self.k = 0 if k is None else int(k)
        self.color = color
        if weight is not None:
            weight = {edge(*e): int(w) for e, w in weight.items()}
            if set(weight) != eset:
                raise ValueError("weight map must cover every edge exactly")
            if any(w < 0 for w in weight.values()):
                raise ValueError("negative edge weight")
        self.weight = weight
        self._masks = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def masks(self) -> tuple:
        """Per-vertex neighbour bitmasks: bit u of ``masks[v]`` is set iff
        uv is an edge."""
        if self._masks is None:
            m = [0] * self.n
            for u, v in self.edges:
                m[u] |= 1 << v
                m[v] |= 1 << u
            self._masks = tuple(m)
        return self._masks

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def color_classes(self) -> dict:
        """Color id -> list of edges (every declared color, even if empty)."""
        classes = {c: [] for c in range(1, self.k + 1)}
        if self.color:
            for e in self.edges:
                classes[self.color[e]].append(e)
        return classes

    def remove_vertices(self, drop) -> "Graph":
        """Induced subgraph on the complement of ``drop``; vertices renumbered
        in increasing order of the surviving original ids."""
        drop = set(drop)
        keep = [v for v in range(self.n) if v not in drop]
        idx = {v: i for i, v in enumerate(keep)}
        es = [(idx[u], idx[v]) for u, v in self.edges if u not in drop and v not in drop]
        color = None
        if self.color:
            color = {edge(idx[u], idx[v]): self.color[(u, v)]
                     for u, v in self.edges if u not in drop and v not in drop}
        weight = None
        if self.weight:
            weight = {edge(idx[u], idx[v]): self.weight[(u, v)]
                      for u, v in self.edges if u not in drop and v not in drop}
        return Graph(len(keep), es, color=color, weight=weight, k=self.k or None)

    def components(self):
        """Vertex sets of the connected components as sorted lists, ordered
        by their smallest vertex.

        A search over neighbour lists built from ``edges``, O(n + m): read
        from ``masks``, each neighbour would cost a pass over a mask as
        long as the host."""
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        seen = bytearray(self.n)
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = 1
            comp = [s]
            for v in comp:  # comp grows as the search reaches new vertices
                for u in nbrs[v]:
                    if not seen[u]:
                        seen[u] = 1
                        comp.append(u)
            comp.sort()
            out.append(comp)
        return out

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and (self.n, self.edges, self.color, self.weight)
                == (other.n, other.edges, other.color, other.weight))

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def quotient(h: Graph, blocks):
    """Merge each block into one vertex; None if the merge is not loop-free
    and edge-injective.

    ``blocks`` is any iterable of vertex collections that partitions
    ``0 .. h.n-1`` into nonempty blocks (a ValueError otherwise).  Block i
    in order of least vertex becomes vertex i.  The result is None as soon
    as a block holds an edge (a loop) or two edges join the same pair of
    blocks (a collision): such partitions contribute zero to every
    edge-injective counting identity over loop-free hosts.
    """
    bs = sorted(tuple(sorted(b)) for b in blocks)
    who = [None] * h.n
    for i, b in enumerate(bs):
        if not b:
            raise ValueError("empty block")
        for v in b:
            if not 0 <= v < h.n or who[v] is not None:
                raise ValueError("blocks must be disjoint and in range")
            who[v] = i
    if None in who:
        raise ValueError("blocks must cover the vertex set")
    pairs = set()
    for u, v in h.edges:
        bu, bv = who[u], who[v]
        if bu == bv:
            return None
        key = (bu, bv) if bu < bv else (bv, bu)
        if key in pairs:
            return None
        pairs.add(key)
    return Graph(len(bs), pairs)


# ---------------------------------------------------------------------------
# pattern constructors

def _path(k):
    if k < 1:
        raise ValueError("paths need k >= 1")
    return Graph(k + 1, [(i, i + 1) for i in range(k)])


def _cycle(k):
    if k < 3:
        raise ValueError("cycles need k >= 3")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def _clique(k):
    return Graph(k, itertools.combinations(range(k), 2))


def _biclique(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _matching(k):
    if k < 0:
        raise ValueError("k must be >= 0")
    return Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def _triangles(k):
    es = []
    for i in range(k):
        b = 3 * i
        es += [(b, b + 1), (b, b + 2), (b + 1, b + 2)]
    return Graph(3 * k, es)


def _wedges(k):
    # wedge i: center 3i with leaves 3i+1, 3i+2
    es = []
    for i in range(k):
        b = 3 * i
        es += [(b, b + 1), (b, b + 2)]
    return Graph(3 * k, es)


def _windmill(k):
    # center 0, matched pairs (2i+1, 2i+2); center adjacent to all of them
    es = [(2 * i + 1, 2 * i + 2) for i in range(k)]
    es += [(0, v) for v in range(1, 2 * k + 1)]
    return Graph(2 * k + 1, es)


def _substar(k):
    # center 0, matched pairs (2i+1, 2i+2); center adjacent to 2i+1 only
    es = [(2 * i + 1, 2 * i + 2) for i in range(k)]
    es += [(0, 2 * i + 1) for i in range(k)]
    return Graph(2 * k + 1, es)


def _collar(ell):
    # u = 0, then blocks of four 1+4i..4+4i with a_i = 1+4i, b_i = 2+4i,
    # v = 4*ell + 1 last
    if ell < 1:
        raise ValueError("collar length must be >= 1")
    es = [(0, 1), (4 * ell - 2, 4 * ell + 1)]
    for i in range(ell):
        es += itertools.combinations(range(1 + 4 * i, 5 + 4 * i), 2)
        if i:
            es.append((4 * i - 2, 4 * i + 1))  # b_{i-1} to a_i
    return Graph(4 * ell + 2, es)


def _barbed_wire(ell):
    # (u,v)-path with 2*ell + 2 edges; the ell internal path vertices at
    # distance 2, 4, ..., 2*ell from u carry two extra leaf-edges each.
    # Path vertices 0..2*ell+2, leaves appended afterwards.
    if ell < 1:
        raise ValueError("barbed wire length must be >= 1")
    path_n = 2 * ell + 3
    es = [(i, i + 1) for i in range(path_n - 1)]
    nxt = path_n
    for i in range(ell):
        spine = 2 * i + 2
        es += [(spine, nxt), (spine, nxt + 1)]
        nxt += 2
    return Graph(nxt, es)


def weight_gadget(i):
    """Gadget chain used for removing edge weights: two terminals joined by i
    nested detour paths; the j-th path carries a marked middle edge.

    Returns (graph, terminal a, terminal b, the i marked edges by level)."""
    if i < 1:
        raise ValueError("gadget index must be >= 1")
    # level 1: single edge a_1 = 0, b_1 = 1
    es = [(0, 1)]
    a, b = 0, 1
    marked = [(0, 1)]
    nxt = 2
    for lvl in range(1, i):
        a2, b2 = nxt, nxt + 1
        nxt += 2
        es += [(a2, a), (b2, b)]
        # path of length 2*lvl + 1 between a2 and b2; its (lvl+1)-th edge is marked
        inner = list(range(nxt, nxt + 2 * lvl))
        nxt += 2 * lvl
        chain = [a2] + inner + [b2]
        path_edges = list(zip(chain, chain[1:]))
        es += path_edges
        marked.append(edge(*path_edges[lvl]))
        a, b = a2, b2
    return Graph(nxt, es), a, b, tuple(marked)


def _weight_gadget_graph(i):
    return weight_gadget(i)[0]


_KINDS = {
    "P": (_path, 1), "path": (_path, 1),
    "C": (_cycle, 1), "cycle": (_cycle, 1),
    "K": (_clique, 1), "clique": (_clique, 1),
    "Kab": (_biclique, 2), "biclique": (_biclique, 2),
    "kK2": (_matching, 1), "matching": (_matching, 1),
    "kK3": (_triangles, 1), "triangles": (_triangles, 1),
    "kP2": (_wedges, 1), "wedges": (_wedges, 1),
    "W": (_windmill, 1), "windmill": (_windmill, 1),
    "SS": (_substar, 1), "substar": (_substar, 1),
    "collar": (_collar, 1),
    "barbed": (_barbed_wire, 1), "barbedwire": (_barbed_wire, 1),
    "Gi": (_weight_gadget_graph, 1), "weightgadget": (_weight_gadget_graph, 1),
}


def make_pattern(kind: str, *params: int) -> Graph:
    """Build one of the named pattern graphs with canonical numbering.

    Kinds (aliases in parentheses): P/path k = path with k edges, C/cycle,
    K/clique, Kab/biclique a b, kK2/matching, kK3/triangles, kP2/wedges,
    W/windmill, SS/substar, collar, barbed(wire), Gi/weightgadget.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown pattern kind {kind!r}")
    fn, arity = _KINDS[kind]
    if len(params) != arity:
        raise ValueError(f"pattern {kind} takes {arity} parameter(s)")
    params = tuple(int(p) for p in params)
    if any(p < 1 for p in params):
        raise ValueError(f"pattern {kind} parameters must be >= 1")
    return fn(*params)


# ---------------------------------------------------------------------------
# quantities as pattern queries

# quantity -> (pattern built from k, or None for the given one; map kind;
# divisor of the map count, |Aut| of the built pattern as a function of k)
QUERIES = {
    "hom": (None, "hom", None),
    "emb": (None, "emb", None),
    "edginj": (None, "edginj", None),
    "wedginj": (None, "wedginj", None),
    "matchings": (_matching, "emb", lambda k: 2 ** k * factorial(k)),
    "ec-cycles": (_cycle, "edginj", lambda k: 2 * k),
    "ec-paths": (_path, "edginj", lambda k: 2),
    "cycles": (_cycle, "emb", lambda k: 2 * k),
}

# counter -> map kind -> the "module.function" that counts those maps
COUNTERS = {
    "oracle": {"hom": "oracles.count_hom", "emb": "oracles.count_emb",
               "edginj": "oracles.count_edginj",
               "wedginj": "oracles.count_edginj_weighted"},
    "poly": {"emb": "eihom.count_emb_small_vc",
             "edginj": "eihom.count_edginj_poly"},
}


# ---------------------------------------------------------------------------
# structural transformations

def line_graph(g: Graph) -> Graph:
    """Vertex i of the result is the i-th edge of ``g`` in sorted edge order;
    two vertices are adjacent iff the edges share an endpoint.

    Pairs are joined within each vertex's incident-edge list, so the work
    is O(sum of squared degrees); two distinct edges of a simple graph
    share at most one endpoint, so no pair is produced twice."""
    es = g.edges
    incident = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(es):
        incident[u].append(i)
        incident[v].append(i)
    out = [pair for at in incident for pair in itertools.combinations(at, 2)]
    return Graph(len(es), out)


def subdivide(g: Graph, t: int) -> Graph:
    """Replace each edge by a path with ``t`` inner vertices (t+1 edges).

    Original vertices keep their ids; the inner vertices of the i-th edge
    (sorted order) occupy ``n + t*i .. n + t*i + t - 1``, ordered from the
    smaller endpoint.  A colored ``g`` raises ValueError: colors are never
    invented silently.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return g
    if g.color is not None:
        raise ValueError("subdividing a colored graph would invent colors")
    es = []
    nxt = g.n
    for u, v in g.edges:
        chain = [u] + list(range(nxt, nxt + t)) + [v]
        nxt += t
        es += zip(chain, chain[1:])
    return Graph(nxt, es)


# ---------------------------------------------------------------------------
# vertex covers

def isolated_parts(g: Graph):
    """The isolated vertices of g and the vertices of its isolated-edge (K_2)
    components, two per component, as two increasing lists; one scan of
    ``g.masks``."""
    masks = g.masks
    isolated = [v for v, m in enumerate(masks) if not m]
    pairs = [v for v, m in enumerate(masks)
             if m.bit_count() == 1 and masks[m.bit_length() - 1] == 1 << v]
    return isolated, pairs


def isolated_edge_factor(g: Graph, core: Graph, count: int) -> int:
    """Edge-injective maps of ``count`` isolated edges into g beside a core:
    the j-th, for j = 0, 1, ..., takes one of the 2(|E(g)| - |E(core)| - j)
    oriented host edges left, clamped at 0."""
    return 2 ** count * perm(max(0, g.m - core.m), count)


def minimum_vertex_cover(g: Graph):
    """Smallest vertex cover, found by exhaustive search in increasing size.
    The candidate subsets tried are charged to ``VERTEX_COVER_CAP``."""
    if not g.edges:
        return frozenset()
    budget = left("VERTEX_COVER_CAP")
    tried = 0
    masks = g.masks
    verts = [v for v in range(g.n) if masks[v]]
    everything = sum(1 << v for v in verts)
    for size in range(len(verts) + 1):  # all of verts is a cover
        for cand in itertools.combinations(verts, size):
            tried += 1
            if tried > budget:  # past what the cap had left: raises
                charge("VERTEX_COVER_CAP", tried, "subsets")
            out = everything
            for v in cand:
                out ^= 1 << v
            # cand covers every edge iff no vertex outside it has a
            # neighbour outside it
            if not any(masks[v] & out for v in bits(out)):
                charge("VERTEX_COVER_CAP", tried, "subsets")
                return frozenset(cand)


def vertex_cover_number(g: Graph, weak: bool = False) -> int:
    """Minimum (weak) vertex-cover size.  The weak variant first deletes all
    isolated-edge components."""
    if weak:
        g = g.remove_vertices(isolated_parts(g)[1])
    return len(minimum_vertex_cover(g))


# ---------------------------------------------------------------------------
# text format

def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    ``# comment`` lines and blank lines are ignored; the first payload line
    must be ``v <n>``; every following line is ``e <u> <v> [c=<int>]
    [w=<int>]`` with 0-based vertices, u != v, and 1-based colors; each
    attribute is given at most once.
    """
    n = None
    edges, color, weight = [], {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if n is not None or len(parts) != 2:
                raise ValueError(f"line {lineno}: bad or repeated header")
            n = int(parts[1])
            if n < 0:
                raise ValueError(f"line {lineno}: negative vertex count {n}")
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {lineno}: edge before header")
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: edge needs two endpoints")
            u, v = int(parts[1]), int(parts[2])
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"line {lineno}: vertex out of range")
            if u == v:
                raise ValueError(f"line {lineno}: self-loop at {u}")
            e = edge(u, v)
            if e in set(edges):
                raise ValueError(f"line {lineno}: duplicate edge {e}")
            edges.append(e)
            for extra in parts[3:]:
                if extra[:2] not in ("c=", "w="):
                    raise ValueError(f"line {lineno}: bad attribute {extra!r}")
                attrs = color if extra[0] == "c" else weight
                if e in attrs:
                    raise ValueError(
                        f"line {lineno}: repeated attribute {extra!r}")
                attrs[e] = int(extra[2:])
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise ValueError("missing 'v <n>' header")
    if color and len(color) != len(edges):
        raise ValueError("colors must cover every edge or none")
    if weight and len(weight) != len(edges):
        raise ValueError("weights must cover every edge or none")
    return Graph(n, edges, color=color or None, weight=weight or None)


def serialize_graph(g: Graph) -> str:
    """Canonical text form: header, then edges sorted lexicographically."""
    lines = [f"v {g.n}"]
    for e in g.edges:
        parts = [f"e {e[0]} {e[1]}"]
        if g.color is not None and e in g.color:
            parts.append(f"c={g.color[e]}")
        if g.weight is not None:
            parts.append(f"w={g.weight[e]}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"

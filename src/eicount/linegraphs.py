"""Perfect matchings in 3-regular line graphs, both directions.

Forward: a 3-regular line graph on >= 5 vertices splits uniquely into a
perfect matching M and a perfect triangle packing T; contracting the
triangles gives a cubic graph whose all-degrees-odd edge subsets are in
bijection with the perfect matchings, and those are counted by GF(2) linear
algebra.

Backward: expanding every vertex of a cubic graph into a triangle and
replacing the matching edges by collar gadgets packs the per-cardinality
matching counts into the digits of one big perfect-matching count.
"""

from __future__ import annotations

import itertools

from .exact import gf2_solution_count
from .graphs import Graph, bits, edge
from .oracles import count_odd_edge_sets_enum, count_perfect_matchings


class DecompositionError(ValueError):
    """The input does not decompose into a perfect matching plus a perfect
    triangle packing (so it is not a 3-regular line graph we can handle)."""


def decompose_3regular_line(g: Graph):
    """Split a 3-regular line graph into (matching M, triangle list T,
    contracted graph).

    Triangles are removed greedily from the lowest uncovered vertex.  Once
    the packing covers every vertex, no further check is needed:

    * each vertex lies in exactly one packed triangle, which gives it two
      triangle edges; being 3-regular, it has exactly one leftover edge, so
      the leftover edges form a perfect matching;
    * every triangle xyz of g is packed: otherwise one of its edges, say xy,
      is a leftover (matching) edge, so z is a triangle-mate of both x and
      y, i.e. z lies in T(x) and in T(y) for the packed triangle T(v)
      containing v.  Then T(x) = T(y) and xy is a triangle edge after all.

    Hence the decomposition is unique, and the split takes one pass over the
    vertices and one over the edges.
    """
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise DecompositionError("graph is not 3-regular")
    if g.n < 5:
        raise DecompositionError("need at least 5 vertices (use brute force below)")
    covered = [False] * g.n
    triangles = []
    for v in range(g.n):
        if covered[v]:
            continue
        found = None
        nbrs = [u for u in bits(g.masks[v]) if not covered[u]]
        for a, b in itertools.combinations(nbrs, 2):
            if g.has_edge(a, b):
                found = (v, a, b)
                break
        if found is None:
            raise DecompositionError(f"no triangle covers vertex {v}")
        triangles.append(found)
        for u in found:
            covered[u] = True
    tri_edges = set()
    for a, b, c in triangles:
        tri_edges |= {edge(a, b), edge(a, c), edge(b, c)}
    matching = [e for e in g.edges if e not in tri_edges]
    tri_of = [None] * g.n
    for i, t in enumerate(triangles):
        for u in t:
            tri_of[u] = i
    contracted_pairs = [(tri_of[u], tri_of[v]) for u, v in matching]
    if len({edge(a, b) for a, b in contracted_pairs}) != len(contracted_pairs):
        raise DecompositionError(
            "contraction yields parallel edges; not representable as a simple graph")
    g_down = Graph(len(triangles), contracted_pairs)
    return matching, triangles, g_down


def count_odd_edge_sets(g: Graph) -> int:
    """Edge subsets with every vertex degree odd, counted via the GF(2)
    solution space of the incidence system Bx = 1.  The elimination reduces
    each vertex row only by the pivots whose leading column it hits."""
    rows = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        rows[u] |= 1 << i
        rows[v] |= 1 << i
    return gf2_solution_count(rows, [1] * g.n, g.m)


def count_perfmatch_3regular_line(g: Graph) -> int:
    """Perfect matchings of a 3-regular line graph in polynomial time:
    brute force below 5 vertices, otherwise the odd-edge-set count of the
    triangle contraction."""
    if g.n < 5:
        return count_perfect_matchings(g)
    _, _, g_down = decompose_3regular_line(g)
    return count_odd_edge_sets(g_down)


# ---------------------------------------------------------------------------
# hardness-direction pipeline

def triangle_expand(g: Graph) -> Graph:
    """Replace every vertex v of a cubic graph by a triangle on vertices
    3v, 3v+1, 3v+2; the i-th edge at v (sorted edge order) attaches to the
    i-th triangle vertex.  The edges between different triangles form a
    perfect matching with one edge per edge of ``g``."""
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise ValueError("triangle expansion needs a 3-regular graph")
    port = {}
    counter = [0] * g.n
    for u, v in g.edges:
        port[(u, v)] = counter[u]
        counter[u] += 1
        port[(v, u)] = counter[v]
        counter[v] += 1
    es = []
    for v in range(g.n):
        b = 3 * v
        es += [(b, b + 1), (b, b + 2), (b + 1, b + 2)]
    for u, v in g.edges:
        es.append((3 * u + port[(u, v)], 3 * v + port[(v, u)]))
    return Graph(3 * g.n, es)


def replace_matching_with_collars(gp: Graph, matching, ell: int) -> Graph:
    """Replace each matching edge uv by a fresh collar of length ell with
    ends u and v."""
    if ell < 1:
        raise ValueError("collar length must be >= 1")
    matching = [edge(*e) for e in matching]
    mset = set(matching)
    if len(mset) != len(matching):
        raise ValueError("duplicate matching edge")
    seen = set()
    for u, v in matching:
        if u in seen or v in seen:
            raise ValueError("edges do not form a matching")
        seen |= {u, v}
    es = [e for e in gp.edges if e not in mset]
    nxt = gp.n
    for u, v in matching:
        a_prev = None
        for i in range(ell):
            blk = list(range(nxt, nxt + 4))
            nxt += 4
            es += list(itertools.combinations(blk, 2))
            ai, bi = blk[0], blk[1]
            if i == 0:
                es.append(edge(u, ai))
            else:
                es.append(edge(a_prev, ai))
            a_prev = bi
        es.append(edge(a_prev, v))
    return Graph(nxt, es)


def extract_digits_base_r(total: int, radix: int, ndigits: int):
    """Base-``radix`` digits of ``total``; entry t is the coefficient of
    radix^(ndigits - t), most significant first."""
    if total < 0 or radix < 2:
        raise ValueError("need total >= 0 and radix >= 2")
    if total >= radix ** (ndigits + 1):
        raise ValueError("total too large for the requested digit count")
    out = []
    for t in range(ndigits + 1):
        power = radix ** (ndigits - t)
        out.append(total // power)
        total %= power
    return out


class DigitOverflowError(ValueError):
    """Some per-cardinality count reaches the radix, so the digit encoding
    would be ambiguous at this collar length."""


def perfmatch_via_line_reduction(g: Graph, ell: int) -> int:
    """Perfect matchings of a cubic graph recovered from one perfect-matching
    count of its collar-expanded line-graph encoding.

    A collar length of |E(G')|+1 would make overflow impossible but also
    makes the encoding graph far too large for the exact oracle, so ``ell``
    is a parameter; the required premise that every digit stays below 3^ell
    is verified independently against the per-cardinality odd-edge-set
    enumeration and violations raise :class:`DigitOverflowError`.
    """
    gp = triangle_expand(g)
    matching = [e for e in gp.edges if e[0] // 3 != e[1] // 3]
    radix = 3 ** ell
    per_card = count_odd_edge_sets_enum(g, by_cardinality=True)
    if any(m >= radix for m in per_card):
        raise DigitOverflowError(
            f"a digit reaches 3^{ell}; increase the collar length")
    b = replace_matching_with_collars(gp, matching, ell)
    total = count_perfect_matchings(b)
    digits = extract_digits_base_r(total, radix, len(matching))
    # digits[t] = perfect matchings of gp using exactly t matching edges
    return digits[g.n // 2]

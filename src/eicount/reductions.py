"""Executable reduction pipelines, each paired with the counting identity it
realizes: matching counts via wedge-packing interpolation, via an apex plus
triangle packings, and via subdivided stars; simple-cycle counts via weighted
cycle gadgets; weight removal for cycle patterns; and edge-disjoint cycle
counts assembled from path queries.

These exist to make the identities executable and testable; their oracles
are exponential, so hosts stay desk-scale.
"""

from __future__ import annotations

import itertools
from math import comb, factorial, perm

from .exact import (Polynomial, exact_quotient, interpolate, recover_unknowns,
                    required_inputs)
from .graphs import (Graph, bfs_layers, bits, edge, line_graph, make_pattern,
                     weight_gadget)
from .oracles import count_edginj, count_edginj_weighted, matchings_profile


# ---------------------------------------------------------------------------
# the hub construction shared by the wedge and star pipelines

def _validate_bipartite_only(g: Graph, left):
    lset = set(left)
    for u, v in g.edges:
        if (u in lset) == (v in lset):
            raise ValueError("graph is not bipartite for the given left set")


def _validate_bipartite(g: Graph, left):
    left = sorted(set(left))
    _validate_bipartite_only(g, left)
    lset = set(left)
    right = [v for v in range(g.n) if v not in lset]
    for v in right:
        if g.degree(v) > 2:
            raise ValueError(f"right vertex {v} has degree > 2")
    for a, b in itertools.combinations(left, 2):
        if (g.masks[a] & g.masks[b]).bit_count() > 1:
            raise ValueError(f"left vertices {a},{b} share two neighbors")
    return left, right


def _hub_core(g: Graph, left, first: int):
    """The part shared by the hub graphs: vertex 0 adjacent to every left
    vertex and every degree-2 right vertex contracted to an edge between
    its two (left) neighbours.  The left vertices, then the right vertices
    of degree 1, take ids ``first, first + 1, ...`` in increasing original
    order; ids 1 .. first-1 are left to the caller.

    Returns (vertex count, edge list).
    """
    left, right = _validate_bipartite(g, left)
    keep_right = [v for v in right if g.degree(v) == 1]
    newid = {v: first + i for i, v in enumerate(left + keep_right)}
    es = [(0, newid[v]) for v in left]
    for v in right:
        nbrs = list(bits(g.masks[v]))
        if g.degree(v) == 2:
            es.append(edge(newid[nbrs[0]], newid[nbrs[1]]))
        elif g.degree(v) == 1:
            es.append(edge(newid[nbrs[0]], newid[v]))
    return first + len(newid), es


def build_Gr(g: Graph, left, r: int) -> Graph:
    """Hub graph: vertex 0 adjacent to every left vertex, r pendant special
    vertices 1..r on the hub, and every degree-2 right vertex contracted to
    an edge between its two (left) neighbors.

    New ids: hub 0, specials 1..r, then the left vertices in increasing
    original order, then the right vertices of degree <= 1.  The resulting
    graph is simple by the validated preconditions.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    n, es = _hub_core(g, left, 1 + r)
    es += [(0, s) for s in range(1, r + 1)]
    return Graph(n, es)


# ---------------------------------------------------------------------------
# wedge-packing pipeline

def wedge_classification(g0: Graph, k: int):
    """Classify every edge-injective image of k disjoint wedges in a hub
    graph by how many wedges use two / one / zero hub edges (test / good /
    bad).  Returns a dict (t, g, b) -> count; the hub is vertex 0."""
    counts = {}
    edges_at = [list(bits(g0.masks[v])) for v in range(g0.n)]
    used = set()

    def rec(i, t, gd, b):
        if i == k:
            key = (t, gd, b)
            counts[key] = counts.get(key, 0) + 1
            return
        for c in range(g0.n):
            for u in edges_at[c]:
                e1 = edge(c, u)
                if e1 in used:
                    continue
                used.add(e1)
                for w in edges_at[c]:
                    e2 = edge(c, w)
                    if e2 == e1 or e2 in used:
                        continue
                    used.add(e2)
                    hub_edges = (0 in e1) + (0 in e2)
                    rec(i + 1,
                        t + (hub_edges == 2),
                        gd + (hub_edges == 1),
                        b + (hub_edges == 0))
                    used.discard(e2)
                used.discard(e1)

    rec(0, 0, 0, 0)
    return counts


def wedge_alpha_oracle(g: Graph, left, k: int):
    """The alpha numbers for a bipartite instance: images of k disjoint
    wedges in G^0 with zero test wedges, keyed (good, bad)."""
    g0 = build_Gr(g, left, 0)
    cls = wedge_classification(g0, k)
    return {(gd, b): c for (t, gd, b), c in cls.items() if t == 0}


def _hub_profile(g0: Graph):
    """Matchings of the line graph of ``g0`` tallied by (size, #hub edges
    covered), together with the hub degree; everything
    :func:`_packings_from_profile` needs for any (r, j).

    ``g0`` must be the hub graph with r = 0 (hub vertex 0).
    """
    hub_edge_vertices = [i for i, e in enumerate(g0.edges) if 0 in e]
    profile = matchings_profile(line_graph(g0), special=hub_edge_vertices)
    return profile, len(hub_edge_vertices)


def _packings_from_profile(profile, n_hub: int, r: int, j: int) -> int:
    """#EdgInj(j*P2, G^r) from the hub profile of G^0: the r pendant special
    edges at the hub are interchangeable, so wedges decompose into core
    wedges (core matchings, from the profile), core-pendant wedges and
    pendant-pendant wedges (closed form)."""
    total = 0
    for (a, used_s), cnt in profile.items():
        if a > j:
            continue
        free_s = n_hub - used_s
        for b in range(0, j - a + 1):
            c = j - a - b
            if b > free_s or 2 * c + b > r:
                continue
            ways = cnt
            # choose which free hub-incident core edges pair with pendants
            ways *= comb(free_s, b)
            # ordered pendant choices: b singles plus c internal pairs
            ways *= perm(r, b + 2 * c) // (2 ** c * factorial(c))
            total += ways
    return 2 ** j * factorial(j) * total


def wedge_packings_in_hub(g0: Graph, r: int, j: int) -> int:
    """#EdgInj(j*P2, G^r) without building G^r.  Matchings of the core line
    graph are enumerated once per call; :func:`count_matchings_via_wedges`
    enumerates them once for all its (r, j).

    ``g0`` must be the hub graph with r = 0 (hub vertex 0).
    """
    return _packings_from_profile(*_hub_profile(g0), r, j)


def count_matchings_via_wedges(g: Graph, left, k: int) -> int:
    """k-matchings of a right-degree-<=2 bipartite graph recovered from
    edge-injective wedge-packing counts on the hub graphs G^r.

    For each packing size j the counts over r form a polynomial of degree
    <= 2j; evaluating at r = 0..2j+1 and interpolating (the extra point
    checks the degree, so a single wrong count raises), then shifting to the
    variable y = deg(hub) = n_left + r, produces exactly the polynomial
    family the moment recovery expects.  The answer is the all-good count
    divided by 2^k k!.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    left = sorted(set(left))
    g0 = build_Gr(g, left, 0)
    n_left = len(left)
    profile, n_hub = _hub_profile(g0)
    polys = []
    for j in range(required_inputs(k) + 1):
        pts = [(r, _packings_from_profile(profile, n_hub, r, j))
               for r in range(2 * j + 2)]
        beta_j = interpolate(pts)
        if beta_j.degree > 2 * j:
            raise ArithmeticError(f"wedge-packing counts for j={j} are not "
                                  f"a polynomial of degree <= {2 * j}")
        polys.append(beta_j.compose(Polynomial.x() - n_left))
    a = recover_unknowns(k, polys)
    return exact_quotient(a[k], 2 ** k * factorial(k),
                          "all-good wedge count must divide exactly")


# ---------------------------------------------------------------------------
# apex and subdivided-star pipelines

def count_matchings_via_apex(g: Graph, left, k: int) -> int:
    """k-matchings of a bipartite graph from one edge-injective count of k
    disjoint triangles into the graph plus a universal apex."""
    _validate_bipartite_only(g, left)
    apex = g.n
    es = list(g.edges) + [(v, apex) for v in range(g.n)]
    gp = Graph(g.n + 1, es)
    total = count_edginj(make_pattern("kK3", k), gp) if k else 1
    return exact_quotient(total, 6 ** k * factorial(k),
                          "triangle-packing count must divide exactly")


def build_star_host(g: Graph, left) -> Graph:
    """The subdivided-star host: hub adjacent to the left side, degree-2
    right vertices contracted, plus a pendant path hub-1-2 acting as the
    anchor ray.  Ids: hub 0, path vertices 1 and 2, then as in build_Gr."""
    n, es = _hub_core(g, left, 3)
    es += [(0, 1), (1, 2)]
    return Graph(n, es)


def count_matchings_via_star(g: Graph, left, k: int) -> int:
    """k-matchings via subdivided stars: the difference of the SS_{k+1}
    counts on the star host with and without the anchor tip counts exactly
    the maps whose image contains the tip, and each k-matching arises from
    (k+1)! of them."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        # the anchored-difference identity needs the star center to have
        # degree >= 2; the empty matching is counted directly
        return 1
    host = build_star_host(g, left)
    pat = make_pattern("SS", k + 1)
    with_tip = count_edginj(pat, host)
    without_tip = count_edginj(pat, host.remove_vertices([2]))  # tip is 2
    return exact_quotient(with_tip - without_tip, factorial(k + 1),
                          "anchored star count must divide exactly")


# ---------------------------------------------------------------------------
# cycle gadget pipeline (simple cycles from edge-disjoint weighted cycles)

def build_cycle_gadget(g: Graph, b: int):
    """Per-vertex gadget graph: each vertex v becomes a length-3 path whose
    middle edge carries weight b, with deg(v) entry ports feeding one end
    and deg(v) exit ports leaving the other; each original edge wires entry
    ports to exit ports in both orientations.  All other edges have
    weight 1.

    Returns (graph, the weight-b middle edges in vertex order); at b = 1
    their weight does not tell them apart."""
    if b < 0:
        raise ValueError("b must be >= 0")
    port_index = {}
    counter = [0] * g.n
    for u, v in g.edges:
        port_index[(u, v)] = counter[u]
        counter[u] += 1
        port_index[(v, u)] = counter[v]
        counter[v] += 1
    base = {}
    nxt = 0
    es = []
    weight = {}
    s_port = {}
    t_port = {}
    weighted_edges = []
    for v in range(g.n):
        d = g.degree(v)
        p = list(range(nxt, nxt + 4))
        nxt += 4
        for a, bb in zip(p, p[1:]):
            e = edge(a, bb)
            es.append(e)
            weight[e] = 1
        mid = edge(p[1], p[2])
        weight[mid] = b
        weighted_edges.append(mid)
        base[v] = p
        for i in range(d):
            s = nxt + i
            t = nxt + d + i
            s_port[(v, i)] = s
            t_port[(v, i)] = t
            e1 = edge(s, p[0])
            e2 = edge(t, p[3])
            es += [e1, e2]
            weight[e1] = weight[e2] = 1
        nxt += 2 * d
    for u, v in g.edges:
        i = port_index[(u, v)]
        j = port_index[(v, u)]
        for e in (edge(s_port[(v, j)], t_port[(u, i)]),
                  edge(s_port[(u, i)], t_port[(v, j)])):
            es.append(e)
            weight[e] = 1
    return Graph(nxt, es, weight=weight), weighted_edges


def min_weighted_edge_separation(gb: Graph, weighted_edges) -> int:
    """Least number of weight-1 edges on a path in ``gb`` between two
    distinct edges of ``weighted_edges`` (structural sanity check; must be
    >= 5).

    A shortest such path never runs through a third weighted edge, whose
    endpoints would be nearer, so the search walks every edge.
    """
    best = -1
    earlier = 0  # endpoints of the weighted edges already searched from
    for u, v in weighted_edges:
        ends = (1 << u) | (1 << v)
        for d, layer in enumerate(bfs_layers(gb.masks, ends)):
            if layer & earlier:
                if best < 0 or d < best:
                    best = d
                break
        earlier |= ends
    return best


def cycle_gadget_polynomial_value(g: Graph, k: int, b: int) -> int:
    """p(b): the weighted edge-injective count of the length-6k cycle in the
    gadget graph, divided by 12k."""
    gb, _ = build_cycle_gadget(g, b)
    val = count_edginj_weighted(make_pattern("C", 6 * k), gb)
    return exact_quotient(val, 12 * k, "gadget cycle count must divide by 12k")


def count_simple_cycles_via_gadget(g: Graph, k: int) -> int:
    """Simple k-cycles from the weighted gadget pipeline: p has degree <= k
    and its leading coefficient is twice the number of simple k-cycles."""
    if k < 3:
        raise ValueError("k must be >= 3")
    pts = [(b, cycle_gadget_polynomial_value(g, k, b)) for b in range(k + 1)]
    p = interpolate(pts)
    return exact_quotient(p.coeff(k), 2,
                          "leading coefficient must be an even integer")


# ---------------------------------------------------------------------------
# weight removal for cycle patterns

def build_unweighted_substitute(g: Graph, w_max: int) -> Graph:
    """Substitute every weight-w edge uv by the detour gadget with exactly w
    open routes of length 2*w_max - 1, attached through fresh terminals.
    Every weight must lie in 1..w_max, else ValueError."""
    if g.weight is None:
        raise ValueError("host must be weighted")
    if any(w < 1 for w in g.weight.values()):
        raise ValueError("weights must be >= 1 (zero-weight edges are undefined here)")
    if any(w > w_max for w in g.weight.values()):
        raise ValueError(f"an edge weight exceeds w_max={w_max}: its gadget "
                         f"would keep only {w_max} routes")
    full, a, b, marked = weight_gadget(w_max)
    es = []
    nxt = g.n
    for u, v in g.edges:
        w = g.weight[(u, v)]
        drop = set(marked[w:])  # removing e_{w+1}..e_{W} leaves w routes
        offset = nxt
        for e in full.edges:
            if e in drop:
                continue
            es.append((offset + e[0], offset + e[1]))
        es.append(edge(u, offset + a))
        es.append(edge(v, offset + b))
        nxt += full.n
    return Graph(nxt, es)


def unweight_cycles(g: Graph, k: int):
    """Run the weight-removal identity for the k-cycle pattern: builds the
    substituted graph and reports both sides of

        EdgInj(C_{2Wk+k}, G') = (2W+1) * WEdgInj(C_k, G).

    Returns (substituted graph, lhs, rhs).  The identity needs k >= 4.
    """
    if k < 4:
        raise ValueError("the substitution argument needs k >= 4")
    if g.weight is None:
        raise ValueError("host must be weighted")
    if not g.edges:
        return g, 0, 0
    w_max = max(g.weight.values())
    if w_max > k:
        raise ValueError("weights must be bounded by k")
    gp = build_unweighted_substitute(g, w_max)
    lhs = count_edginj(make_pattern("C", 2 * w_max * k + k), gp)
    rhs = (2 * w_max + 1) * count_edginj_weighted(make_pattern("C", k), g)
    return gp, lhs, rhs


def gadget_walks(i: int):
    """All edge-disjoint terminal-to-terminal walks of the detour gadget:
    list of (length, frozenset of edges).  Ground truth for the gadget's
    route structure."""
    gad, a, b, _ = weight_gadget(i)
    out = []

    def rec(v, used, path_len):
        if v == b:
            out.append((path_len, frozenset(used)))
            return
        for u in bits(gad.masks[v]):
            e = edge(v, u)
            if e in used:
                continue
            used.add(e)
            rec(u, used, path_len + 1)
            used.discard(e)

    rec(a, set(), 0)
    return out


def longest_edge_disjoint_cycle(g: Graph) -> int:
    """Length of the longest closed walk with pairwise-distinct edges."""
    best = 0

    def rec(v, start, used, length):
        nonlocal best
        if v == start and length > 0:
            best = max(best, length)
        for u in bits(g.masks[v]):
            e = edge(v, u)
            if e in used:
                continue
            used.add(e)
            rec(u, start, used, length + 1)
            used.discard(e)

    for s in range(g.n):
        rec(s, s, set(), 0)
    return best


# ---------------------------------------------------------------------------
# edge-disjoint cycles from path queries

def ec_cycles_via_paths(g: Graph, k: int, path_len: int | None = None) -> int:
    """Edge-disjoint k-cycles assembled from edge-disjoint path counts.

    Vertices are peeled in increasing order; cycles through the current
    vertex are isolated by attaching two pendant probes and combining four
    path queries by inclusion-exclusion.  The probe paths have k+2 edges by
    default (a k-cycle plus the two pendants).  Each such cycle yields four
    edge-injective probe-path maps: two endpoint orders times two traversal
    directions around the cycle, hence the division by four.  For k >= 6 a
    cycle may visit the probed vertex twice and would be overcounted, so
    k is restricted to 3 <= k <= 5 and anything else raises ValueError.
    """
    if not 3 <= k <= 5:
        raise ValueError("ec-cycles via paths needs 3 <= k <= 5")
    if path_len is None:
        path_len = k + 2
    pat = make_pattern("P", path_len)
    total = 0
    for i in range(g.n):
        gi = g.remove_vertices(range(i + 1, g.n))
        s, t = gi.n, gi.n + 1
        gpi = Graph(gi.n + 2, list(gi.edges) + [(i, s), (i, t)])
        acc = 0
        for drop in [(), (s,), (t,), (s, t)]:
            sign = (-1) ** len(drop)
            sub = gpi.remove_vertices(drop)
            acc += sign * count_edginj(pat, sub)
        total += exact_quotient(
            acc, 4, "probe paths must come in orientation quadruples")
    return total

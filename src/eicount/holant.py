"""Edge-colored Holant machinery: signature graphs, colorful Holant
evaluation, matchgates with boundary signatures, matchgate insertion,
combined-signature expansion, and the two pipelines that turn colorful
matching counts into queries on subdivided / uncolored graphs.

Colors are arbitrary hashable tokens here (the constructions use (i, 1..4)
pairs); plain graphs use integer colors 1..k and are converted at the
boundary.
"""

from __future__ import annotations

import itertools
from math import prod

from .config import check_cap
from .exact import exact_quotient
from .graphs import Graph
from .oracles import count_matchings


class HwAtMostOne:
    """Signature [hw(x) <= 1]: at most one incident edge picked."""

    def value(self, ones, annot):
        return int(len(ones) <= 1)

    def __repr__(self):
        return "HW<=1"


class AnnotationEq:
    """Signature [pi(e1) = pi(e2)] on weight-2 restrictions, 0 otherwise.

    The weight != 2 case never arises on colorful assignments at the
    subdivision vertices this signature decorates; evaluating it to 0 merely
    makes the signature total.
    """

    def value(self, ones, annot):
        if len(ones) != 2:
            return 0
        a, b = [annot(r) for r in ones]
        return int(a == b)

    def __repr__(self):
        return "ANNOT-EQ"


class TableSignature:
    """Explicit truth table over subsets of the incident edges."""

    def __init__(self, table):
        self.table = {frozenset(s): v for s, v in table.items()}

    def value(self, ones, annot):
        return self.table.get(frozenset(ones), 0)

    def __repr__(self):
        return f"Table({len(self.table)} entries)"


HW_LEQ1 = HwAtMostOne()
ANNOT_EQ = AnnotationEq()


class SignatureGraph:
    """Edge-colored multigraph with a signature at every vertex.

    ``edges`` are (u, v, color, annot) with parallel edges allowed;
    ``dangling`` are single-endpoint edges (vertex, color, annot), labeled
    1.. by position.  A matchgate is a SignatureGraph with dangling edges
    and HW<=1 everywhere.
    """

    def __init__(self, n, sigs, edges, dangling=(), colors=None):
        self.n = int(n)
        self.sigs = tuple(sigs)
        if len(self.sigs) != self.n:
            raise ValueError("need one signature per vertex")
        self.edges = tuple((int(u), int(v), c, a) for (u, v, c, a) in edges)
        self.dangling = tuple((int(u), c, a) for (u, c, a) in dangling)
        for u, v, _, _ in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
                raise ValueError("bad edge endpoints")
        for u, _, _ in self.dangling:
            if not 0 <= u < self.n:
                raise ValueError("bad dangling endpoint")
        present = []
        for _, _, c, _ in self.edges:
            if c not in present:
                present.append(c)
        for _, c, _ in self.dangling:
            if c not in present:
                present.append(c)
        if colors is None:
            self.colors = tuple(present)
        else:
            self.colors = tuple(dict.fromkeys(colors))
            missing = [c for c in present if c not in self.colors]
            if missing:
                raise ValueError(f"colors {missing} used but not declared")

    def incident(self, v):
        """Edge references at v: ("e", i) internal, ("d", i) dangling."""
        out = [("e", i) for i, (a, b, _, _) in enumerate(self.edges) if v in (a, b)]
        out += [("d", i) for i, (a, _, _) in enumerate(self.dangling) if a == v]
        return out

    def ref_color(self, ref):
        kind, i = ref
        return self.edges[i][2] if kind == "e" else self.dangling[i][1]

    def ref_annot(self, ref):
        kind, i = ref
        return self.edges[i][3] if kind == "e" else self.dangling[i][2]

    def degree(self, v):
        return len(self.incident(v))

    def is_matchgate(self):
        return bool(self.dangling) and all(isinstance(s, HwAtMostOne) for s in self.sigs)

    def replace_signature(self, v, sig):
        sigs = list(self.sigs)
        sigs[v] = sig
        return SignatureGraph(self.n, sigs, self.edges, self.dangling, self.colors)


def build_match_holant(g: Graph) -> SignatureGraph:
    """Same graph, HW<=1 at every vertex; ColHolant then counts the colorful
    matchings of g."""
    if g.color is None:
        raise ValueError("host must be edge-colored")
    edges = [(u, v, g.color[(u, v)], None) for u, v in g.edges]
    return SignatureGraph(g.n, [HW_LEQ1] * g.n, edges,
                          colors=range(1, g.k + 1))


def strip_signatures(sg: SignatureGraph):
    """Drop the signatures of an all-HW<=1 signature graph, returning the
    underlying edge-colored Graph (colors densely renumbered 1..k) plus the
    color renumbering map."""
    if sg.dangling:
        raise ValueError("cannot strip a graph with dangling edges")
    if not all(isinstance(s, HwAtMostOne) for s in sg.sigs):
        raise ValueError("all signatures must be HW<=1")
    present = {c for _, _, c, _ in sg.edges}
    try:
        ordered = sorted(present)
    except TypeError:
        ordered = sorted(present, key=repr)
    seen = {c: i + 1 for i, c in enumerate(ordered)}
    pairs = [(u, v) if u < v else (v, u) for u, v, _, _ in sg.edges]
    if len(set(pairs)) != len(pairs):
        raise ValueError("parallel edges cannot be stripped to a simple graph")
    color = {}
    for (u, v, c, _), e in zip(sg.edges, pairs):
        color[e] = seen[c]
    return Graph(sg.n, pairs, color=color, k=len(seen)), seen


def _colorful_sum(sg: SignatureGraph, lit=frozenset()):
    """The enumeration behind :func:`col_holant` and :func:`col_sig`.  The
    dangling edges with a label in ``lit`` are fixed to 1, so their colors
    take no internal edge (a color lit twice admits no assignment); all
    other dangling edges are 0."""
    choices = {c: [] for c in sg.colors}
    for i, (_, _, c, _) in enumerate(sg.edges):
        choices[c].append(("e", i))
    lit_refs = {}
    for label in lit:
        lit_refs.setdefault(sg.dangling[label - 1][1], []).append(("d", label - 1))
    for c, refs in lit_refs.items():
        choices[c] = refs if len(refs) == 1 else []
    lists = [choices[c] for c in sg.colors]
    volume = prod(len(opts) for opts in lists)
    check_cap("HOLANT_CAP", volume)
    if volume == 0:
        return 0
    inc = [frozenset(sg.incident(v)) for v in range(sg.n)]
    total = 0
    for pick in itertools.product(*lists):
        chosen = frozenset(pick)
        term = 1
        for v in range(sg.n):
            term *= sg.sigs[v].value(inc[v] & chosen, sg.ref_annot)
            if term == 0:
                break
        total += term
    return total


def col_holant(sg: SignatureGraph):
    """Sum over colorful assignments (exactly one edge of each declared
    color) of the product of vertex signatures."""
    if sg.dangling:
        raise ValueError("ColHolant is defined for dangling-free graphs")
    return _colorful_sum(sg)


def col_sig(gamma: SignatureGraph, x):
    """Boundary signature of a matchgate: sum over colorful assignments
    extending the dangling-edge assignment ``x`` (a set of 1-labels)."""
    if not gamma.dangling:
        raise ValueError("matchgate needs dangling edges")
    if not all(isinstance(s, HwAtMostOne) for s in gamma.sigs):
        raise ValueError("matchgate signatures must all be HW<=1")
    ones_d = frozenset(int(l) for l in x)
    if any(not 1 <= l <= len(gamma.dangling) for l in ones_d):
        raise ValueError("bad dangling label")
    return _colorful_sum(gamma, ones_d)


def admissible_assignments(sg: SignatureGraph, v):
    """Restrictions to I(v) that can arise from globally colorful
    assignments: at most one incident edge per color, exactly one for colors
    whose class lies entirely inside I(v)."""
    inc = sg.incident(v)
    class_size = {c: 0 for c in sg.colors}
    for _, _, c, _ in sg.edges:
        class_size[c] += 1
    for _, c, _ in sg.dangling:
        class_size[c] += 1
    by_color = {}
    for r in inc:
        by_color.setdefault(sg.ref_color(r), []).append(r)
    choice_lists = []
    for c, refs in sorted(by_color.items(), key=lambda kv: repr(kv[0])):
        opts = list(refs)
        if len(refs) < class_size[c]:
            opts.append(None)
        choice_lists.append(opts)
    for pick in itertools.product(*choice_lists):
        yield frozenset(p for p in pick if p is not None)


def insert_matchgate(omega: SignatureGraph, v: int, gamma: SignatureGraph,
                     edge_order) -> SignatureGraph:
    """Splice a matchgate in place of vertex v.

    ``edge_order[t]`` is the index of the omega edge identified with the
    (t+1)-th dangling edge of gamma; colors must agree pairwise.  Internal
    colors of gamma are renamed to fresh tokens so they stay disjoint from
    omega's colors.
    """
    edge_order = list(edge_order)
    inc_idx = [i for i, (a, b, _, _) in enumerate(omega.edges) if v in (a, b)]
    if sorted(edge_order) != sorted(inc_idx):
        raise ValueError("edge_order must enumerate the edges at v exactly once")
    if len(edge_order) != len(gamma.dangling):
        raise ValueError("arity mismatch between v and the matchgate")
    if not gamma.is_matchgate():
        raise ValueError("gamma is not a matchgate")
    for t, ei in enumerate(edge_order):
        if omega.edges[ei][2] != gamma.dangling[t][1]:
            raise ValueError("dangling-edge colors must match the host colors")
    dangling_colors = {c for _, c, _ in gamma.dangling}
    rename = {}
    for _, _, c, _ in gamma.edges:
        if c not in dangling_colors and c not in rename:
            rename[c] = ("ins", v, c)
    vmap = {}
    for u in range(omega.n):
        if u != v:
            vmap[u] = len(vmap)
    off = len(vmap)
    new_edges = []
    for i, (a, b, c, an) in enumerate(omega.edges):
        if i in set(edge_order):
            continue
        new_edges.append((vmap[a], vmap[b], c, an))
    for t, ei in enumerate(edge_order):
        a, b, c, an = omega.edges[ei]
        other = b if a == v else a
        gv = gamma.dangling[t][0]
        new_edges.append((vmap[other], off + gv, c, an))
    for a, b, c, an in gamma.edges:
        new_edges.append((off + a, off + b, rename.get(c, c), an))
    sigs = [omega.sigs[u] for u in range(omega.n) if u != v] + list(gamma.sigs)
    colors = list(omega.colors) + [rename[c] for c in rename]
    return SignatureGraph(off + gamma.n, sigs, new_edges, colors=colors)


def expand_combined(omega: SignatureGraph, decomposition):
    """Expand combined signatures: ``decomposition`` maps each marked vertex
    to a list of (coefficient, signature) pairs whose weighted sum equals the
    vertex's signature point-wise on every admissible assignment (validated).
    Returns all substituted graphs with their coefficient products; the
    weighted sum of their ColHolants equals ColHolant(omega).
    """
    marked = sorted(decomposition)
    for w in marked:
        f = omega.sigs[w]
        for ones in admissible_assignments(omega, w):
            want = f.value(ones, omega.ref_annot)
            got = sum(c * sig.value(ones, omega.ref_annot)
                      for c, sig in decomposition[w])
            if want != got:
                raise ValueError(
                    f"decomposition at vertex {w} fails on assignment {set(ones)}")
    out = []
    options = [decomposition[w] for w in marked]
    for combo in itertools.product(*options):
        coef = 1
        sg = omega
        for w, (c, sig) in zip(marked, combo):
            coef *= c
            sg = sg.replace_signature(w, sig)
        out.append((coef, sg))
    return out


# ---------------------------------------------------------------------------
# the bipartite subdivision construction

def build_omega_bip(g: Graph) -> SignatureGraph:
    """Split every edge of color i at a fresh vertex w_i (one per color, so
    w_i absorbs the whole color class), colors (i,1)/(i,2), annotation = the
    original edge; HW<=1 on original vertices, annotation-equality on w_i.
    ColHolant of the result equals the colorful matching count of g."""
    if g.color is None:
        raise ValueError("host must be edge-colored")
    k = g.k
    sigs = [HW_LEQ1] * g.n + [ANNOT_EQ] * k
    edges = []
    for u, v in g.edges:
        i = g.color[(u, v)]
        w = g.n + i - 1
        edges.append((u, w, (i, 1), (u, v)))
        edges.append((w, v, (i, 2), (u, v)))
    colors = [(i, j) for i in range(1, k + 1) for j in (1, 2)]
    return SignatureGraph(g.n + k, sigs, edges, colors=colors)


def build_gamma(i: int, ordered_edges, variant: int) -> SignatureGraph:
    """Matchgate realizing one side of the annotation-equality signature at
    w_i, for the color-i edge class listed in ``ordered_edges``.

    Variant 1: external vertices a_1..a_m, b_1..b_m only, no internal edges.
    Variant 2: adds c_j with internal edges a_j c_j of color (i,3) and
    c_j b_j of color (i,4).  Dangling labels alternate (a_j then b_j).
    """
    m = len(ordered_edges)
    if m < 1:
        raise ValueError("need at least one edge in the class")
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    n = 2 * m if variant == 1 else 3 * m
    dangling = []
    for j, e in enumerate(ordered_edges):
        dangling.append((j, (i, 1), e))          # a_j
        dangling.append((m + j, (i, 2), e))      # b_j
    edges = []
    if variant == 2:
        for j in range(m):
            edges.append((j, 2 * m + j, (i, 3), None))
            edges.append((2 * m + j, m + j, (i, 4), None))
    colors = [(i, 1), (i, 2)] + ([(i, 3), (i, 4)] if variant == 2 else [])
    return SignatureGraph(n, [HW_LEQ1] * n, edges, dangling, colors=colors)


def gamma_coefficients(m: int):
    """Coefficients combining the two matchgate variants back into the
    annotation-equality signature: (m^2 - 3m + 3) for variant 1, -1 for
    variant 2."""
    return m * m - 3 * m + 3, -1


def subdivision_terms(g: Graph):
    """All 2^k terms of the subdivision reduction: pairs (coefficient,
    edge-colored query graph).  Every query graph is a subgraph of the
    3-subdivision of g."""
    if g.color is None:
        raise ValueError("host must be edge-colored")
    k = g.k
    classes = g.color_classes()
    if any(not classes[i] for i in range(1, k + 1)):
        return []
    omega = build_omega_bip(g)
    w_of = {i: g.n + i - 1 for i in range(1, k + 1)}
    gammas = {i: (build_gamma(i, classes[i], 1), build_gamma(i, classes[i], 2))
              for i in range(1, k + 1)}
    terms = []
    for theta in itertools.product((0, 1), repeat=k):
        coef = 1
        sg = omega
        # insert at the highest w_i first, so the remaining w ids (all
        # smaller) survive the vertex compaction untouched
        for i in range(k, 0, -1):
            c1, c2 = gamma_coefficients(len(classes[i]))
            coef *= c1 if theta[i - 1] == 0 else c2
            order = []
            for e in classes[i]:
                for side in (1, 2):
                    order += [t for t, (a, b, c, an) in enumerate(sg.edges)
                              if w_of[i] in (a, b) and c == (i, side) and an == e]
            sg = insert_matchgate(sg, w_of[i], gammas[i][theta[i - 1]], order)
        stripped, _ = strip_signatures(sg)
        terms.append((coef, stripped))
    return terms


def colmatch_via_subdivision(g: Graph) -> int:
    """Colorful matching count recovered from colorful matching counts of
    subgraphs of the 3-subdivision, via the combined-signature expansion."""
    total = sum(coef * count_matchings(query, query.k, colorful=True)
                for coef, query in subdivision_terms(g))
    return exact_quotient(total, 1, "colorful matching count must be an integer")


def colmatch_via_uncolored(g: Graph) -> int:
    """Colorful matching count by inclusion-exclusion over color subsets,
    using only uncolored k-matching counts of subgraphs."""
    if g.color is None:
        raise ValueError("host must be edge-colored")
    k = g.k
    total = 0
    for drop in range(k + 1):
        for subset in itertools.combinations(range(1, k + 1), k - drop):
            keep = set(subset)
            sub = [e for e in g.edges if g.color[e] in keep]
            plain = Graph(g.n, sub)
            total += (-1) ** drop * count_matchings(plain, k)
    return total

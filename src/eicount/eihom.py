"""Polynomial-time counting of edge-injective homomorphisms from patterns
with bounded weak vertex-cover number.

The algorithm preprocesses away isolated vertices and edges, fixes a minimum
vertex cover C of the remaining core, groups the edge-injective vertex
partitions of the core into equivalence classes described by a pair
(cover sub-partition, color allocation), computes each class's size by a
closed multinomial formula, and sums class-size times the embedding count of
one representative quotient.  Embeddings of the quotients are counted by a
cover-indexed enumeration.  Each neighborhood class of the independent
vertices gets its candidate mask once, when its requirement is placed; at
each complete cover placement the masks' union is split by each mask into
the cells of their Venn diagram, and an exact occupancy sum fills those
cells one by one, weighing t of the ``left`` members of a class in a cell
with r unused vertices by C(left, t) * (r)_t.  That sum depends only on the
cells' signatures and sizes, so each embedding count memoises it per cell
profile for the length of the call.
"""

from __future__ import annotations

import itertools
from math import comb, factorial, perm

from .config import CapExceeded
from .exact import multinomial
from .graphs import (Graph, all_partitions, bits, isolated_parts,
                     minimum_vertex_cover, quotient)


class ReducedPattern:
    """Pattern core after removing isolated vertices and isolated edges,
    plus the data needed to restore the removed parts as a host-dependent
    multiplier."""

    __slots__ = ("core", "iso_vertices", "removed_edges", "original_edge_count")

    def __init__(self, core, iso_vertices, removed_edges, original_edge_count):
        self.core = core
        self.iso_vertices = iso_vertices
        self.removed_edges = removed_edges
        self.original_edge_count = original_edge_count

    def multiplier(self, g: Graph) -> int:
        """Host-dependent factor restoring the removed pieces:
        |V(G)| per isolated vertex and 2(|E(G)| - |E(H)| + 1) per isolated
        edge, with |E(H)| decreasing as edges are peeled off."""
        out = g.n ** self.iso_vertices
        for j in range(self.removed_edges):
            out *= 2 * (g.m - (self.original_edge_count - j) + 1)
        return out


def reduce_isolated(h: Graph) -> ReducedPattern:
    """Exhaustively remove isolated vertices and isolated-edge components."""
    isolated, pairs = isolated_parts(h)
    return ReducedPattern(h.remove_vertices(isolated + pairs), len(isolated),
                          len(pairs) // 2, h.m)


# ---------------------------------------------------------------------------
# equivalence classes of edge-injective partitions

class CoverSubPartition:
    """Partition of a subset D of the pattern's vertices into blocks that
    all intersect the fixed cover; the vertices outside D are ``free``.
    ``colors`` holds the pattern last given to ``_free_colors`` and the
    colors of its free vertices."""

    __slots__ = ("blocks", "domain", "colors")

    def __init__(self, blocks):
        self.blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        self.domain = frozenset(v for b in self.blocks for v in b)
        self.colors = None


def color_of(v, rho_c: CoverSubPartition, h: Graph):
    """The set of rho_c blocks adjacent to the free vertex v."""
    if v in rho_c.domain:
        raise ValueError(f"vertex {v} is not free")
    nbrs = h.masks[v]
    return frozenset(b for b in rho_c.blocks if any(nbrs >> u & 1 for u in b))


def _free_colors(h: Graph, rho_c: CoverSubPartition):
    """The color of each free vertex of h, computed once per (rho_c, h), so
    that enumerating, sizing and building a class share one computation."""
    if rho_c.colors is None or rho_c.colors[0] is not h:
        rho_c.colors = (h, {v: color_of(v, rho_c, h)
                            for v in range(h.n) if v not in rho_c.domain})
    return rho_c.colors[1]


def _color_set_candidates(colors, start, chosen, used):
    """Yield every nonempty family of pairwise-disjoint colors (the possible
    per-block color sets) that extends ``chosen`` by colors from
    ``colors[start:]`` disjoint from ``used``."""
    for i in range(start, len(colors)):
        c = colors[i]
        if used & c:
            continue
        nxt = chosen + (c,)
        yield frozenset(nxt)
        yield from _color_set_candidates(colors, i + 1, nxt, used | c)


def _allocations(betas, i, remaining, alloc):
    """Yield each extension of ``alloc`` by multiplicities for ``betas[i:]``
    that uses up the ``remaining`` count of every color exactly."""
    if i == len(betas):
        if all(r == 0 for r in remaining.values()):
            yield dict(alloc)
        return
    beta = betas[i]
    limit = min(remaining[k] for k in beta)
    for mult in range(limit + 1):
        if mult:
            alloc[beta] = mult
        yield from _allocations(
            betas, i + 1,
            {k: r - (mult if k in beta else 0) for k, r in remaining.items()},
            alloc)
        alloc.pop(beta, None)


def enumerate_classes(h: Graph, cover):
    """Yield the (CoverSubPartition, color allocation) pairs of the nonempty
    classes.

    The color allocation is a dict mapping each block color-set beta (a
    frozenset of pairwise-disjoint colors) to its multiplicity; candidates
    are generated so that every free vertex is accounted for: for each color
    K, the multiplicities of the betas containing K sum to the number of
    free vertices of color K.

    A cover sub-partition rho_c is skipped when its quotient with every free
    vertex left a singleton has a loop or an edge collision.  Every
    partition of a class over rho_c coarsens that singleton partition, and
    coarsening never removes a loop or an edge collision, so the skipped
    classes are empty.  Conversely, free vertices are pairwise non-adjacent
    and the colors within one beta are disjoint, so merging them adds
    neither; every pair yielded is a nonempty class.
    """
    cover = frozenset(cover)
    if any(u not in cover and v not in cover for u, v in h.edges):
        raise ValueError("the given set is not a vertex cover")
    c = len(cover)
    others = [v for v in range(h.n) if v not in cover]
    max_extra = min(c * c - c, len(others))
    for extra in range(max_extra + 1):
        for xs in itertools.combinations(others, extra):
            d = sorted(cover | set(xs))
            for blocks in all_partitions(d):
                if any(not (set(b) & cover) for b in blocks):
                    continue
                rho_c = CoverSubPartition(blocks)
                singles = tuple((v,) for v in range(h.n)
                                if v not in rho_c.domain)
                if quotient(h, rho_c.blocks + singles) is None:
                    continue
                colors = _free_colors(h, rho_c)
                counts = {}
                for k in colors.values():
                    counts[k] = counts.get(k, 0) + 1
                distinct = sorted(counts, key=lambda s: sorted(map(sorted, s)))
                betas = list(_color_set_candidates(distinct, 0, (), frozenset()))
                for alloc in _allocations(betas, 0, counts, {}):
                    yield rho_c, alloc


def class_size(rho_c: CoverSubPartition, alloc, h: Graph) -> int:
    """Number of partitions in the equivalence class (rho_c, alloc):
    a product of per-color multinomials for distributing the free vertices
    of each color among the betas containing it, times (mult!)^{|beta|-1}
    per beta for pairing the chosen vertices into blocks.  Returns 0 for
    inconsistent candidates."""
    colors = _free_colors(h, rho_c)
    counts = {}
    for k in colors.values():
        counts[k] = counts.get(k, 0) + 1
    for beta in alloc:
        seen = set()
        for k in beta:
            if seen & k:
                return 0
            seen |= k
    out = 1
    relevant = set(counts)
    for beta in alloc:
        relevant |= set(beta)
    for k in relevant:
        parts = [alloc[beta] for beta in alloc if k in beta]
        have = counts.get(k, 0)
        if sum(parts) != have:
            return 0
        out *= multinomial(have, parts)
    for beta, mult in alloc.items():
        out *= factorial(mult) ** (len(beta) - 1)
    return out


def build_representative(rho_c: CoverSubPartition, alloc, h: Graph):
    """Greedy construction of one partition in the class; returns its
    quotient graph, or None when the class is empty (vertices run out, are
    left over, or the quotient is not edge-injective)."""
    colors = _free_colors(h, rho_c)
    pools = {}
    for v in sorted(colors):
        pools.setdefault(colors[v], []).append(v)
    blocks = [list(b) for b in rho_c.blocks]
    for beta in sorted(alloc, key=lambda s: sorted(map(sorted, s))):
        for _ in range(alloc[beta]):
            block = []
            for k in sorted(beta, key=lambda s: sorted(map(sorted, s))):
                if not pools.get(k):
                    return None
                block.append(pools[k].pop())
            blocks.append(block)
    if any(pools.values()):
        return None
    return quotient(h, blocks)


# ---------------------------------------------------------------------------
# embedding counter for small-cover patterns

def count_emb_small_vc(f: Graph, g: Graph, bound: int = 6) -> int:
    """Embeddings of f into g in host-polynomial time for fixed cover size.

    Enumerates injective edge-preserving images of a minimum cover C' of f;
    the remaining (independent) vertices are grouped into classes by their
    required neighborhood in C'.  Each class's candidate mask (the free host
    vertices adjacent to the images of its whole requirement) is computed
    once, when the last cover vertex of the requirement is placed, and
    passed down; a class without requirement starts from the full mask.
    At each complete cover placement the masks are cut to the free host
    vertices and the injective placements are counted by an exact occupancy
    sum that fills the cells of the masks' Venn diagram one by one.  The
    class multiplicities are fixed for the call, so one dict, created here
    and dropped on return, maps each cell profile to its sum.

    A partial placement whose mask for a class holds fewer vertices than
    the class's multiplicity is abandoned: deeper cover placements only
    remove vertices from the free set, so it counts zero.
    """
    if bound < 0:
        raise ValueError(f"cover bound must be >= 0, got {bound}")
    if f.n == 0:
        return 1
    if f.n > g.n:
        return 0
    cover = sorted(minimum_vertex_cover(f))
    if len(cover) > bound:
        raise CapExceeded(f"cover size {len(cover)} exceeds bound {bound}")
    class_sizes = {}
    for v in range(f.n):
        if v not in cover:
            class_sizes[f.masks[v]] = class_sizes.get(f.masks[v], 0) + 1
    classes = sorted(class_sizes.items(), key=lambda kv: list(bits(kv[0])))
    # checks[i]: the classes whose requirement is fully placed with cover[i]
    # (cover is sorted, so that is its highest requirement bit)
    checks = [[] for _ in cover]
    for k, (req, mult) in enumerate(classes):
        if req:
            checks[cover.index(req.bit_length() - 1)].append((k, req, mult))
    full = (1 << g.n) - 1
    return _place(f, g, cover, checks, 0, {}, full, [full] * len(classes),
                  [mult for _, mult in classes], {})


def _place(f: Graph, g: Graph, cover, checks, i, image, free, cand, mults,
           memo) -> int:
    """Count the embeddings of f that extend ``image``, the placement of
    cover[:i], with the rest of g in the bitmask ``free``.  ``cand[k]`` is
    class k's candidate mask once its requirement is placed; entries are
    overwritten, never restored, since each is read only below the position
    that sets it.  ``memo`` is the call's cell-profile memo."""
    if i == len(cover):
        return _independent_count([c & free for c in cand], mults, memo)
    v = cover[i]
    hosts = free
    for u, x in image.items():
        if f.masks[v] >> u & 1:
            hosts &= g.masks[x]
    total = 0
    for w in bits(hosts):
        image[v] = w
        rest = free & ~(1 << w)
        for k, req, mult in checks[i]:
            c = rest
            for u in bits(req):
                c &= g.masks[image[u]]
            if c.bit_count() < mult:
                break  # too few host vertices left for this class
            cand[k] = c
        else:
            total += _place(f, g, cover, checks, i + 1, image, rest, cand,
                            mults, memo)
        del image[v]
    return total


def _independent_count(cand_sets, mults, memo=None) -> int:
    """Count the injective maps that send mults[k] members of class k into
    the bitmask cand_sets[k], for every k.

    Host vertices are grouped into cells by which candidate sets hold them
    (vertices in none can take no member); the count depends only on the
    cell profile, so ``memo``, when given, maps profiles already counted
    for these ``mults`` to their counts.
    """
    profile = _cell_profile(cand_sets)
    if memo is None:
        return _count_profile(profile, mults)
    out = memo.get(profile)
    if out is None:
        out = memo[profile] = _count_profile(profile, mults)
    return out


def _cell_profile(cand_sets):
    """The signature and size of each nonempty cell of the candidate sets'
    Venn diagram inside their union, flat as (sig_0, size_0, sig_1, ...),
    where bit k of a signature is set iff the cell lies in cand_sets[k].
    The union is split by each mask in turn, so the order of the cells
    depends only on their signatures.  The tuple is flat, not one pair per
    cell, so that a memo entry is one object."""
    union = 0
    for cand in cand_sets:
        union |= cand
    cells = [(0, union)] if union else []
    for k, cand in enumerate(cand_sets):
        split = []
        for sig, cell in cells:
            inside = cell & cand
            if inside:
                split.append((sig | 1 << k, inside))
            if inside != cell:
                split.append((sig, cell ^ inside))
        cells = split
    profile = []
    for sig, cell in cells:
        profile += sig, cell.bit_count()
    return tuple(profile)


def _count_profile(profile, mults) -> int:
    """The occupancy sum over the cells of ``profile``.  The cells are
    filled one by one, each class over its cells in turn: putting t of the
    ``left`` unplaced members of a class into a cell with r unused vertices
    weighs C(left, t) * (r)_t, and the last cell of a class takes what is
    left."""
    # slots: (cell, None) for each cell of a class but its last, and
    # (cell, multiplicity of the next class) for its last
    sigs = profile[::2]
    slots = []
    for k in range(len(mults)):
        feas = [j for j, sig in enumerate(sigs) if sig >> k & 1]
        if not feas:
            return 0
        slots += [(j, None) for j in feas[:-1]]
        slots.append((feas[-1], mults[k + 1] if k + 1 < len(mults) else 0))
    return _fill(slots, 0, mults[0] if mults else 0, list(profile[1::2]))


def _fill(slots, s, left, room) -> int:
    """Weighted count of the ways to fill ``slots[s:]``, with ``left``
    members of the current class unplaced and room[j] unused vertices in
    cell j."""
    if s == len(slots):
        return 1
    j, nxt = slots[s]
    r = room[j]
    if nxt is not None:
        if left > r:
            return 0
        room[j] = r - left
        out = perm(r, left) * _fill(slots, s + 1, nxt, room)
        room[j] = r
        return out
    out = 0
    for t in range(min(left, r) + 1):
        room[j] = r - t
        out += comb(left, t) * perm(r, t) * _fill(slots, s + 1, left - t, room)
    room[j] = r
    return out


# ---------------------------------------------------------------------------
# the full algorithm

def count_edginj_poly(h: Graph, g: Graph, bound: int = 3) -> int:
    """Edge-injective homomorphism count for patterns of weak vertex-cover
    number at most ``bound``, via class-collected quotient embeddings."""
    if bound < 0:
        raise ValueError(f"cover bound must be >= 0, got {bound}")
    red = reduce_isolated(h)
    mult = red.multiplier(g)
    core = red.core
    if core.n == 0:
        return mult
    cover = minimum_vertex_cover(core)
    if len(cover) > bound:
        raise CapExceeded(
            f"weak vertex-cover number {len(cover)} exceeds bound {bound}")
    total = 0
    for _, _, n_class, rep in realized_classes(core, cover):
        total += n_class * count_emb_small_vc(rep, g, bound=bound)
    return mult * total


def realized_classes(h: Graph, cover):
    """The equivalence classes the algorithm sums over, with their sizes and
    the quotient of one representative each.  Yields (rho_c, alloc, size,
    quotient graph).  Every enumerated class is nonempty, so an empty one
    raises rather than being dropped from the sum."""
    for rho_c, alloc in enumerate_classes(h, cover):
        size = class_size(rho_c, alloc, h)
        rep = build_representative(rho_c, alloc, h)
        if size == 0 or rep is None:
            raise AssertionError(
                f"enumerated class {rho_c.blocks} {alloc} is empty "
                f"(size {size}, representative {rep})")
        yield rho_c, alloc, size, rep


"""Polynomial-time counting of edge-injective homomorphisms from patterns
with bounded weak vertex-cover number.

The algorithm preprocesses away isolated vertices and edges, fixes a minimum
vertex cover C of the remaining core, and groups the edge-injective vertex
partitions of the core into classes, each a pair (cover sub-partition,
color allocation) held in bitmasks: the sub-partition is a tuple of block
masks, a free vertex's color is the mask of the blocks it has an edge to,
and an allocation pairs tuples of disjoint colors with multiplicities.  The
cover sub-partitions are grown one vertex at a time, and no vertex is
placed where it would make a loop or a second edge between two blocks, so
only nonempty classes are generated and each builds one quotient.  The
count sums class size (a closed multinomial formula) times the embeddings
of that quotient, found by a cover-indexed enumeration: at each complete
cover placement the independent vertices' candidate masks are split into
the cells of their Venn diagram, and an exact occupancy sum, memoised per
cell profile in each call, fills them.

Everything but the embedding counts depends on the pattern alone, so
``count_edginj_poly`` compiles each pattern once into a plan: its numbers of
isolated vertices and isolated edges, its core, and one term (class size,
quotient, cover of the quotient) per class.  The plans are cached per
pattern object (not per content), at most ``PLAN_CACHE_SIZE`` of them, and
the least recently used goes first.  The blocks that hold core-cover
vertices cover their quotient, so a quotient has a cover of at most
``COVER_BOUND`` vertices; a search tree of depth k, for k from a matching's
size up, finds a minimum one in at most 2^k leaves per k.

The class enumeration and the cover placement charge their steps to
``SEARCH_VOLUME_CAP`` as the map search charges its images: a counter
``work``, [steps the cap still allows, steps it allowed at the start], is
counted down and charged on return or when it runs out.  A step is a node
the sub-partition or allocation search pops, a host vertex a placement
node tries, a class a complete placement splits, or a slot the occupancy
sum visits.  The quotient-cover search charges its nodes to
``VERTEX_COVER_CAP``.  A cached plan charges nothing again.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial, perm

from .config import CapExceeded, charge, left
from .exact import multinomial
from .graphs import (Graph, bits, isolated_edge_factor, isolated_parts,
                     minimum_vertex_cover, quotient)

# the largest weak vertex-cover number count_edginj_poly accepts.  The cap
# bounds its work without it; it stays because the benchmark's test of a
# failed operation draws that failure from a pattern of weak cover 4
COVER_BOUND = 3

# the most plans count_edginj_poly keeps: a caller that queries a pattern
# on many hosts holds few of them, and one-off patterns only pass through
PLAN_CACHE_SIZE = 64

# id(pattern) -> (pattern, its plan), least recently used first.  An entry
# holds its pattern, so no other object takes that id while it stays
_PLANS = {}


def reduce_isolated(h: Graph, g: Graph):
    """Split off h's isolated vertices and isolated-edge components.

    Returns (core, factor): EdgInj(h, G) is the factor times EdgInj(core,
    G).  An isolated vertex adds a factor |V(G)|, and the isolated edges
    add :func:`graphs.isolated_edge_factor`."""
    isolated, pairs = isolated_parts(h)
    core = h.remove_vertices(isolated + pairs)
    return core, g.n ** len(isolated) * isolated_edge_factor(
        g, core, len(pairs) // 2)


# ---------------------------------------------------------------------------
# equivalence classes of edge-injective partitions

def free_colors(h: Graph, blocks):
    """Map each vertex of h outside the block masks ``blocks`` to its color:
    the mask of the indices of the blocks it has an edge to."""
    domain = 0
    for b in blocks:
        domain |= b
    return {v: sum(1 << j for j, b in enumerate(blocks) if h.masks[v] & b)
            for v in range(h.n) if not domain >> v & 1}


def _betas(colors, start=0, chosen=(), used=0):
    """Yield every nonempty tuple of pairwise-disjoint colors (the possible
    per-block color sets) that extends ``chosen`` by colors from
    ``colors[start:]`` disjoint from ``used``."""
    for i in range(start, len(colors)):
        c = colors[i]
        if not used & c:
            beta = chosen + (c,)
            yield beta
            yield from _betas(colors, i + 1, beta, used | c)


def _allocations(betas, counts, work):
    """Yield each tuple of (beta, multiplicity) pairs, in the order of
    ``betas`` and with nonzero multiplicities, that uses up the count
    ``counts[k]`` of every color k exactly.  The search keeps its own stack
    of (number of betas given a multiplicity, counts left, pairs), and
    takes a step of ``work`` per node it pops."""
    stack = [(0, counts, ())]
    while stack:
        i, remaining, alloc = stack.pop()
        work[0] -= 1
        if work[0] < 0:  # past what the cap had left, so the charge raises
            charge("SEARCH_VOLUME_CAP", work[1] - work[0],
                   "class-search nodes")
        if i == len(betas):
            if not any(remaining.values()):
                yield alloc
            continue
        beta = betas[i]
        for mult in range(min(remaining[k] for k in beta), 0, -1):
            stack.append((i + 1, {k: r - mult if k in beta else r
                                  for k, r in remaining.items()},
                          alloc + ((beta, mult),)))
        stack.append((i + 1, remaining, alloc))  # multiplicity 0, popped first


def _subpartitions(masks, order, ncover, work):
    """Yield, as block bitmasks, each cover sub-partition that places
    ``order`` (the cover, then the other vertices) with no loop and no edge
    collision.  A cover vertex joins a block or opens one; any other joins
    or stays free.  The search keeps its own stack of (number of vertices
    placed, blocks, reach), where reach[j] is the OR of block j's masks,
    and takes a step of ``work`` per node it pops."""
    stack = [(0, (), ())]
    while stack:
        i, blocks, reach = stack.pop()
        work[0] -= 1
        if work[0] < 0:  # past what the cap had left, so the charge raises
            charge("SEARCH_VOLUME_CAP", work[1] - work[0],
                   "class-search nodes")
        if i == ncover and any((masks[v] & b).bit_count() > 1
                               for v in order[i:] for b in blocks):
            continue  # a free vertex with two edges into one block
        if i == len(order):
            yield blocks
            continue
        v, nb = order[i], masks[order[i]]
        children = [(i + 1, blocks, reach)] if i >= ncover else []
        opened = (0,) if i < ncover else ()  # a cover vertex may open a block
        for j, (b, r) in enumerate(zip(blocks + opened, reach + opened)):
            if nb & b or any(nb & c and (r & c or (nb & c).bit_count() > 1)
                             for c in blocks):
                continue
            children.append((i + 1,
                             blocks[:j] + (b | 1 << v,) + blocks[j + 1:],
                             reach[:j] + (r | nb,) + reach[j + 1:]))
        stack += reversed(children)  # popped in the order listed


def enumerate_classes(h: Graph, cover):
    """Yield the (blocks, alloc) pairs of the nonempty classes of h, which
    has no isolated vertex outside ``cover``.  ``blocks`` is the cover
    sub-partition as a tuple of block masks in order of least vertex, and
    ``alloc`` a tuple of (beta, multiplicity) pairs, where a beta is a tuple
    of pairwise-disjoint colors (see ``free_colors``), in increasing order;
    the betas holding a color take all its free vertices.

    ``_subpartitions`` places the cover, then each other vertex, and refuses
    a placement that makes a loop or an edge collision in the quotient that
    leaves every unplaced vertex a singleton.  Every partition of a class
    over the blocks coarsens that one, and coarsening never removes a loop
    or a collision, so only empty classes are cut off.  Non-cover vertices
    are pairwise non-adjacent, so a join never changes the edges of a free
    vertex, and those are checked once, when the cover is placed.  A vertex
    joining block j has an edge to a block that block j had no edge to, so
    of t blocks each takes at most t - 1 non-cover vertices.  Merging free
    vertices of disjoint colors (one beta) adds no loop and no collision,
    so every pair yielded is a nonempty class.
    """
    cover = frozenset(cover)
    order = sorted(cover) + [v for v in range(h.n) if v not in cover]
    inside = sum(1 << u for u in cover)
    if any(not h.masks[v] or h.masks[v] & ~inside for v in order[len(cover):]):
        raise ValueError("the given set is not a vertex cover, or a vertex "
                         "outside it is isolated")
    work = [left("SEARCH_VOLUME_CAP")] * 2
    for found in _subpartitions(h.masks, order, len(cover), work):
        blocks = tuple(sorted(found, key=lambda b: b & -b))
        counts = Counter(free_colors(h, blocks).values())
        betas = list(_betas(sorted(counts)))
        for alloc in _allocations(betas, counts, work):
            yield blocks, alloc
    charge("SEARCH_VOLUME_CAP", work[1] - work[0], "class-search nodes")


def class_size(blocks, alloc, h: Graph, colors=None) -> int:
    """Number of partitions in the equivalence class (blocks, alloc):
    a product of per-color multinomials for distributing the free vertices
    of each color among the betas containing it, times (mult!)^{|beta|-1}
    per beta for pairing the chosen vertices into blocks.  Returns 0 for
    inconsistent candidates.  ``colors`` is ``free_colors(h, blocks)`` if
    the caller has it."""
    if colors is None:
        colors = free_colors(h, blocks)
    counts = Counter(colors.values())
    out = 1
    for beta, mult in alloc:
        used = 0
        for k in beta:
            if used & k:
                return 0  # two colors of one beta share a block
            used |= k
        out *= factorial(mult) ** (len(beta) - 1)
    for k in set(counts).union(*(beta for beta, _ in alloc)):
        parts = [mult for beta, mult in alloc if k in beta]
        if sum(parts) != counts[k]:
            return 0
        out *= multinomial(counts[k], parts)
    return out


def build_representative(blocks, alloc, h: Graph, colors=None):
    """Greedy construction of one partition in the class; returns its
    quotient graph, or None when the class is empty (vertices run out, are
    left over, or the quotient is not edge-injective).  ``colors`` is
    ``free_colors(h, blocks)`` if the caller has it."""
    if colors is None:
        colors = free_colors(h, blocks)
    pools = {}
    for v, k in colors.items():
        pools.setdefault(k, []).append(v)
    parts = [bits(b) for b in blocks]
    for beta, mult in alloc:
        for _ in range(mult):
            if not all(pools.get(k) for k in beta):
                return None
            parts.append([pools[k].pop() for k in beta])
    if any(pools.values()):
        return None
    return quotient(h, parts)


# ---------------------------------------------------------------------------
# embedding counter for small-cover patterns

def count_emb_small_vc(f: Graph, g: Graph, cover=None) -> int:
    """Embeddings of f into g in host-polynomial time for fixed cover size.

    Enumerates injective edge-preserving images of a vertex cover C' of f,
    ``cover`` if given and otherwise a minimum one (a set that is not a
    vertex cover of f raises ValueError); the remaining (independent)
    vertices are grouped into classes by their required neighborhood in
    C'.  Each class's candidate mask (the free host
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
    fmasks = f.masks
    if cover is not None:
        inside = sum(1 << v for v in set(cover))
        if inside >> f.n or any(fmasks[v] & ~inside for v in range(f.n)
                                if not inside >> v & 1):
            raise ValueError(f"{sorted(cover)} is not a vertex cover of the "
                             f"pattern")
    if f.n == 0:
        return 1
    if f.n > g.n:
        return 0
    cover = sorted(minimum_vertex_cover(f) if cover is None else set(cover))
    gmasks = g.masks
    class_sizes = {}
    for v in range(f.n):
        if v not in cover:
            class_sizes[fmasks[v]] = class_sizes.get(fmasks[v], 0) + 1
    classes = sorted(class_sizes.items(), key=lambda kv: list(bits(kv[0])))
    # checks[i]: (class, requirement vertices, multiplicity) for the classes
    # whose requirement is fully placed with cover[i] (cover is sorted, so
    # that is its highest requirement bit)
    checks = [[] for _ in cover]
    for k, (req, mult) in enumerate(classes):
        if req:
            checks[cover.index(req.bit_length() - 1)].append(
                (k, tuple(bits(req)), mult))
    full = (1 << g.n) - 1
    work = [left("SEARCH_VOLUME_CAP")] * 2
    total = _place(fmasks, gmasks, cover, checks, 0, {}, full,
                   [full] * len(classes), [mult for _, mult in classes], {},
                   work)
    charge("SEARCH_VOLUME_CAP", work[1] - work[0], "placement steps")
    return total


def _place(fmasks, gmasks, cover, checks, i, image, free, cand, mults,
           memo, work) -> int:
    """Count the embeddings of the pattern with neighbour masks ``fmasks``
    into the host with ``gmasks`` that extend ``image``, the placement of
    cover[:i], with the rest of the host in the bitmask ``free``.
    ``cand[k]`` is class k's candidate mask once its requirement is placed;
    entries are overwritten, never restored, since each is read only below
    the position that sets it.  ``memo`` is the call's cell-profile memo.
    A node takes from the step counter ``work`` the host vertices it tries,
    a complete placement the classes it splits."""
    if i == len(cover):
        work[0] -= len(cand)
        if work[0] < 0:  # past what the cap had left, so the charge raises
            charge("SEARCH_VOLUME_CAP", work[1] - work[0], "placement steps")
        return _independent_count([c & free for c in cand], mults, memo, work)
    v = cover[i]
    nb = fmasks[v]
    hosts = free
    for u, x in image.items():
        if nb >> u & 1:
            hosts &= gmasks[x]
    work[0] -= hosts.bit_count()
    if work[0] < 0:  # past what the cap had left, so the charge raises
        charge("SEARCH_VOLUME_CAP", work[1] - work[0], "placement steps")
    total = 0
    for w in bits(hosts):
        image[v] = w
        rest = free & ~(1 << w)
        for k, req, mult in checks[i]:
            c = rest
            for u in req:
                c &= gmasks[image[u]]
            if c.bit_count() < mult:
                break  # too few host vertices left for this class
            cand[k] = c
        else:
            total += _place(fmasks, gmasks, cover, checks, i + 1, image, rest,
                            cand, mults, memo, work)
        del image[v]
    return total


def _independent_count(cand_sets, mults, memo, work) -> int:
    """Count the injective maps that send mults[k] members of class k into
    the bitmask cand_sets[k], for every k.

    Host vertices are grouped into cells by which candidate sets hold them
    (vertices in none can take no member); the count depends only on the
    cell profile, so ``memo`` maps profiles already counted for these
    ``mults`` to their counts.
    """
    profile = _cell_profile(cand_sets)
    out = memo.get(profile)
    if out is None:
        out = memo[profile] = _count_profile(profile, mults, work)
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


def _count_profile(profile, mults, work) -> int:
    """The occupancy sum over the cells of ``profile``.  The cells are
    filled one by one, each class over its cells in turn: putting t of the
    u unplaced members of a class into a cell with r unused vertices weighs
    C(u, t) * (r)_t, and the last cell of a class takes what is left."""
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
    return _fill(slots, mults[0] if mults else 0, profile[1::2], work)


def _fill(slots, unplaced, room, work) -> int:
    """Weighted count of the ways to fill ``slots``, with ``unplaced``
    members of the first class to place and room[j] unused vertices in
    cell j.  The search keeps its own stack of (next slot, members of the
    current class unplaced, room list, weight so far); a popped entry runs
    on through the slots, pushing an entry for each nonzero number of
    members put in a cell that is not its class's last."""
    budget = work[0]
    total = 0
    stack = [(0, unplaced, list(room), 1)]
    while stack:
        if budget < 0:  # past what the cap had left, so the charge raises
            charge("SEARCH_VOLUME_CAP", work[1] - budget, "placement steps")
        s, todo, room, weight = stack.pop()
        for s in range(s, len(slots)):
            budget -= 1
            j, nxt = slots[s]
            r = room[j]
            if nxt is None:
                for t in range(1, min(todo, r) + 1):
                    branch = room.copy()
                    branch[j] = r - t
                    stack.append((s + 1, todo - t, branch,
                                  weight * comb(todo, t) * perm(r, t)))
            elif todo > r:
                break
            else:  # the class's last cell takes what is left
                weight *= perm(r, todo)
                room[j] = r - todo
                todo = nxt
        else:
            total += weight
    work[0] = budget
    return total


# ---------------------------------------------------------------------------
# the full algorithm

def count_edginj_poly(h: Graph, g: Graph) -> int:
    """Edge-injective homomorphism count via class-collected quotient
    embeddings, polynomial in the host for patterns of bounded weak
    vertex-cover number; a pattern past ``COVER_BOUND`` raises
    :class:`CapExceeded` on every call.  Only the embedding counts read the
    host: the rest comes from the pattern's plan (see ``_plan``)."""
    isolated, pairs, core, terms = _plan(h)
    total = 0
    for size, f, cover in terms:
        total += size * count_emb_small_vc(f, g, cover)
    return g.n ** isolated * isolated_edge_factor(g, core, pairs) * total


def realized_classes(h: Graph, cover):
    """The equivalence classes the algorithm sums over, with their sizes and
    the quotient of one representative each.  Yields (blocks, alloc, size,
    quotient graph).  Every enumerated class is nonempty, so an empty one
    raises rather than being dropped from the sum.  The classes of one
    sub-partition come one after another, and share its free colors."""
    colors = last = None
    for blocks, alloc in enumerate_classes(h, cover):
        if blocks != last:
            colors, last = free_colors(h, blocks), blocks
        size = class_size(blocks, alloc, h, colors)
        rep = build_representative(blocks, alloc, h, colors)
        if size == 0 or rep is None:
            raise AssertionError(
                f"enumerated class {blocks} {alloc} is empty "
                f"(size {size}, representative {rep})")
        yield blocks, alloc, size, rep


# ---------------------------------------------------------------------------
# plans

def _plan(h: Graph):
    """The plan of h (see ``_compile``): from the cache, where it becomes
    the most recently used, or compiled and cached, evicting the least
    recently used plan past ``PLAN_CACHE_SIZE``."""
    entry = _PLANS.pop(id(h), None)
    if entry is None or entry[0] is not h:
        entry = h, _compile(h)
        if len(_PLANS) >= PLAN_CACHE_SIZE:
            del _PLANS[next(iter(_PLANS))]
    _PLANS[id(h)] = entry
    return entry[1]


def _compile(h: Graph):
    """The plan of h: (isolated vertices, isolated edges, core, terms), with
    EdgInj(h, G) = |V(G)|^isolated * ``isolated_edge_factor(G, core,
    isolated edges)`` * the sum over the terms (N, F, cover of F) of N *
    Emb(F, G).  There is one term per class of the core, and the empty core
    has the one term (1, core, ()).  A core past ``COVER_BOUND`` raises
    :class:`CapExceeded`."""
    isolated, pairs = isolated_parts(h)
    core = h.remove_vertices(isolated + pairs)
    if core.n == 0:
        return len(isolated), len(pairs) // 2, core, ((1, core, ()),)
    cover = minimum_vertex_cover(core)
    if len(cover) > COVER_BOUND:
        raise CapExceeded(f"weak vertex-cover number {len(cover)} exceeds "
                          f"the bound {COVER_BOUND} of count_edginj_poly")
    terms = tuple((size, rep, _quotient_cover(rep, len(blocks)))
                  for blocks, _, size, rep in realized_classes(core, cover))
    return len(isolated), len(pairs) // 2, core, terms


def _quotient_cover(f: Graph, t: int):
    """A minimum vertex cover of f, increasing, given that f has one of at
    most t vertices (a quotient's blocks that hold core-cover vertices).

    For k from the size of a greedy maximal matching (each of its edges
    needs its own cover vertex) up to t, a search tree takes, for an
    uncovered edge, its end with the most uncovered edges or else the
    other end, and goes at most k deep, so it has at most 2^k leaves; the
    first k that finds a cover gives a minimum one.  The search keeps its
    own stack, and its nodes are charged to ``VERTEX_COVER_CAP``."""
    masks = f.masks
    matched = low = 0
    for v, nb in enumerate(masks):
        free = nb & ~matched
        if free and not matched >> v & 1:
            matched |= 1 << v | free & -free
            low += 1
    nodes = 0
    for k in range(low, t + 1):
        stack = [(0, k)]  # (the cover so far as a mask, vertices it may add)
        while stack:
            chosen, room = stack.pop()
            nodes += 1
            best, most = None, 0
            for v, nb in enumerate(masks):
                if not chosen >> v & 1 and (nb & ~chosen).bit_count() > most:
                    best, most = v, (nb & ~chosen).bit_count()
            if best is None:
                charge("VERTEX_COVER_CAP", nodes, "cover-search nodes")
                return tuple(bits(chosen))
            if room:
                other = masks[best] & ~chosen
                stack.append((chosen | other & -other, room - 1))
                stack.append((chosen | 1 << best, room - 1))  # popped first
    raise AssertionError(f"{f.edges} has no vertex cover of {t} vertices")

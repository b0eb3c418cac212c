"""The hot counting kernels: pattern-map search, perfect matchings and
odd edge-sets.

Adjacency is passed as per-vertex integer bitmasks (``Graph.masks``), so
hosts of any size work.
"""

from __future__ import annotations

from .config import charge, left
from .graphs import bfs_layers

MODE_HOM = 0
MODE_EMB = 1
MODE_EDGINJ = 2


def _balls(adj, w, r):
    """[B_0, ..., B_r]: B_d is the bitmask of host vertices within hop
    distance d of w."""
    out = []
    ball = 0
    for layer in bfs_layers(adj, 1 << w):
        ball |= layer
        out.append(ball)
        if len(out) > r:
            break
    return out + [ball] * (r + 1 - len(out))


def count_maps(n, adj, mode, parents, anchor, anchor_dist, weights=None,
               rooted=False):
    """Count (weighted) pattern maps into a host graph.

    n: host vertex count; adj: per-vertex neighbor bitmasks.
    parents[p]: images already placed that position p must be adjacent to.
    anchor[p]/anchor_dist[p]: the first position of p's component, whose
    image must lie within host distance anchor_dist[p] of p's image (-1
    disables the check).  When an anchor is placed, the balls around its
    image are built up to the largest anchor_dist that refers to it.
    weights: per-vertex dicts, weights[u][w] the weight of host edge
    {u, w}; when given, each map contributes the product of its image-edge
    weights (mode must be MODE_EDGINJ).

    Each search node filters its candidate images as whole bitmasks.  Under
    edge-injective maps a node whose parents share an image counts 0 (two
    pattern edges would land on one host edge), and otherwise every host
    edge already used at a parent image is masked out, so the candidates
    left need no test.  The last position adds its candidate count
    (``bit_count``) instead of visiting each candidate, except under
    weights, where each candidate's weight product is summed.

    rooted: count only the maps whose root edge, the image of positions
    0-1, is the least image edge in (min, max) order; both orientations of
    the root are counted.  The pattern order must be connected with
    parents[1] == (0,), and mode MODE_EMB or MODE_EDGINJ.  For a root with
    ends lo < hi, no image then lies below lo, and every later parent
    image u admits the w above hi if u = lo, and the w above lo (and lo
    itself when u > hi) if u > lo.  If a later position is adjacent to
    position 0, its image must lie above img[1], so img[1] is never the
    top neighbour of img[0].  For the cycle C_L, the 2L automorphisms act
    freely on the maps and exactly 2 of them fix the edge {0, 1}, so the
    rooted count is twice the number of orbits and
    EdgInj(C_L, G) = L * #{maps whose first edge is the least image edge}.

    The candidate images tried, summed over the search nodes, are charged
    to ``SEARCH_VOLUME_CAP``: the search counts them down from what the cap
    has left and charges them once, on return or when they run out, which
    raises :class:`CapExceeded`.  A node is charged its candidates after
    the adjacency, injectivity, root and distance filters and before the
    edge-injective one, so the mask filter and the counted leaves charge
    what testing each candidate in turn would.
    """
    npos = len(parents)
    # parents[1] can only be (0,) or (); every later position needs a parent
    if rooted and (mode == MODE_HOM or npos < 2 or not all(parents[1:])):
        raise ValueError("rooted mode needs an injective mode and a "
                         "connected order with parents[1] == (0,)")
    if npos == 0:
        return 1
    budget = volume = left("SEARCH_VOLUME_CAP")
    full = (1 << n) - 1
    radius = [0] * npos
    for p, a in enumerate(anchor):
        if a >= 0:
            radius[a] = max(radius[a], anchor_dist[p])
    # per position: its parents, anchor and anchor distance
    steps = list(zip(parents, anchor, anchor_dist))
    balls = [None] * npos  # balls[a][d]: host vertices within d of img[a]
    img = [0] * npos
    used = [0] * n  # used[u] bit v set <=> host edge {u,v} already an image
    # lo, hi, the host vertices above lo, those from lo up, those above hi
    root = [0, 0, 0, 0, 0]
    closes = rooted and any(0 in ps for ps in parents[2:])
    emb = mode == MODE_EMB
    edginj = mode == MODE_EDGINJ
    last = npos - 1
    # frames[p], for each position p placed on the way to the node being
    # visited: its candidates not yet tried, its parent images and their
    # bitmask, its acc and taken, and the bit of img[p]
    frames = []
    total = 0
    pos, acc, taken = 0, 1, 0
    while True:
        # visit the node placing position pos.  acc: weight product of the
        # edges placed so far (1 unweighted); taken: bitmask of the images
        # placed so far (read under MODE_EMB)
        ps, a, dist = steps[pos]
        # one parent is the common case; taking it apart from the list of
        # parent images cuts count_maps' time over the calls of `eicount
        # verify all` by 13-17% (Python 3.11)
        if len(ps) == 1:
            us = (img[ps[0]],)
            cand = adj[us[0]]
        else:
            us = [img[q] for q in ps]  # the parent images
            cand = full
            for u in us:
                cand &= adj[u]
        if emb:
            cand &= ~taken
        if rooted:
            if pos > 1:
                if pos == 2:
                    lo, hi = sorted(img[:2])
                    above_lo = full >> lo + 1 << lo + 1
                    root[:] = (lo, hi, above_lo, above_lo | 1 << lo,
                               full >> hi + 1 << hi + 1)
                lo, hi, above_lo, from_lo, above_hi = root
                for u in us:
                    cand &= above_hi if u == lo else (
                        from_lo if u > hi else above_lo)
            elif closes and pos == 1:
                cand &= (1 << adj[img[0]].bit_length() >> 1) - 1
        if a >= 0:
            cand &= balls[a][dist]
        budget -= cand.bit_count()
        if budget < 0:  # past what the cap had left, so the charge raises
            charge("SEARCH_VOLUME_CAP", volume - budget, "images")
        pmask = 0
        if edginj:
            for u in us:
                if pmask >> u & 1:  # two parents share an image: counts 0
                    cand = 0
                    break
                pmask |= 1 << u
                cand &= ~used[u]
        if pos < last:
            frames.append([cand, us, pmask, acc, taken, 0])
        elif weights is None:
            total += cand.bit_count()
        else:
            while cand:
                low = cand & -cand
                w = low.bit_length() - 1
                cand ^= low
                wgt = acc
                for u in us:
                    wgt *= weights[u][w]
                total += wgt
        # place the next candidate of the deepest position that has one
        while frames:
            frame = frames[-1]
            cand, us, pmask, acc, taken, low = frame
            pos = len(frames) - 1
            if edginj and low:  # take back the edges of the last candidate
                for u in us:
                    used[u] ^= low
                used[img[pos]] ^= pmask
            while cand:
                low = cand & -cand
                w = low.bit_length() - 1
                cand ^= low
                wgt = acc
                if weights is not None:
                    for u in us:
                        wgt *= weights[u][w]
                    if not wgt:
                        continue
                break
            else:
                frames.pop()
                continue
            frame[0], frame[5] = cand, low
            if radius[pos]:
                balls[pos] = _balls(adj, w, radius[pos])
            img[pos] = w
            if edginj:
                for u in us:
                    used[u] |= low
                used[w] |= pmask
            pos, acc, taken = pos + 1, wgt, taken | low
            break
        else:
            break
    charge("SEARCH_VOLUME_CAP", volume - budget, "images")
    return total


def _pm_branches(alive, adj, hint):
    """Submasks whose perfect-matching counts sum to that of ``alive``, each
    with its own hint.

    hint: the vertices of ``alive`` that may have degree below 2 there;
    every other vertex must have degree at least 2.  Degree-one vertices
    are matched to their only neighbour in a loop, always the least such
    vertex, found among the hint, to which the neighbours of both matched
    vertices are added.  Then the least vertex of minimum degree is matched
    to each of its neighbours in turn; the scan stops at the first vertex
    of degree 2, the least degree possible once no forced move is left.
    A branch's hint is the set of neighbours of the two vertices it
    matched.  [] means some vertex has no partner left, [(0, 0)] means
    every vertex was matched by force.
    """
    hint &= alive
    while hint:
        low = hint & -hint
        v = low.bit_length() - 1
        nbrs = adj[v] & alive
        if nbrs & (nbrs - 1):  # degree >= 2: v leaves the hint
            hint ^= low
            continue
        if not nbrs:
            return []
        alive ^= low | nbrs
        hint = (hint | adj[nbrs.bit_length() - 1]) & alive
    if not alive:
        return [(0, 0)]
    best, bestdeg = -1, len(adj)
    rest = alive
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        d = (adj[v] & alive).bit_count()
        if d < bestdeg:
            best, bestdeg = v, d
            if d == 2:
                break
    nbrs = adj[best] & alive
    alive ^= 1 << best
    out = []
    while nbrs:
        low = nbrs & -nbrs
        nbrs ^= low
        child = alive ^ low
        out.append((child, (adj[best] | adj[low.bit_length() - 1]) & child))
    return out


def count_perfect_matchings(n, adj):
    """Exact perfect-matching count by branching on a minimum-degree vertex,
    memoised on the unmatched-vertex set.

    adj: per-vertex neighbor bitmasks.  The memo maps each unmatched-vertex
    bitmask reached to its count (0 for dead ends); its entries are charged
    to ``PERFMATCH_CAP``, which raises :class:`CapExceeded` once they pass
    what the cap has left.
    Each state on the stack carries the hint of :func:`_pm_branches`, the
    vertices whose degree can have dropped below 2 since its parent
    branched.  The hint only shortens the scans: the branches, and so the
    memoised states, are those of a full scan.  The search keeps its own
    stack, so its depth is not limited by Python's recursion limit.
    """
    if n % 2:
        return 0
    limit = left("PERFMATCH_CAP")
    full = (1 << n) - 1
    memo = {0: 1}
    stack = [(full, full, None)]
    while stack:
        alive, hint, branches = stack.pop()
        if branches is None:
            if alive in memo:
                continue
            branches = _pm_branches(alive, adj, hint)
        pending = [b for b in branches if b[0] not in memo]
        if pending:
            stack.append((alive, hint, branches))
            stack.extend((b, h, None) for b, h in pending)
            continue
        memo[alive] = sum(memo[b] for b, _ in branches)
        if len(memo) > limit:  # past what the cap had left: raises
            charge("PERFMATCH_CAP", len(memo), "matching states")
    charge("PERFMATCH_CAP", len(memo), "matching states")
    return memo[full]


def count_odd_edge_sets(n, eu, ev, by_cardinality=False):
    """Count edge subsets inducing odd degree at every vertex, by implicit
    exhaustive enumeration (meet-in-the-middle over the edge list).  The
    subsets both halves tabulate are charged to ``EDGE_SUBSET_CAP`` first."""
    m = len(eu)
    full = (1 << n) - 1
    half = m // 2
    charge("EDGE_SUBSET_CAP", (1 << half) + (1 << m - half), "edge subsets")

    def table(lo, hi):
        out = {}
        for mask in range(1 << (hi - lo)):
            par = 0
            card = 0
            mm = mask
            while mm:
                i = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                par ^= (1 << eu[lo + i]) | (1 << ev[lo + i])
                card += 1
            out.setdefault(par, [0] * (hi - lo + 1))[card] += 1
        return out

    low = table(0, half)
    high = table(half, m)
    counts = [0] * (m + 1)
    for par, cl in low.items():
        match = high.get(par ^ full)
        if not match:
            continue
        for c1, a in enumerate(cl):
            if not a:
                continue
            for c2, b in enumerate(match):
                if b:
                    counts[c1 + c2] += a * b
    if by_cardinality:
        return counts
    return sum(counts)

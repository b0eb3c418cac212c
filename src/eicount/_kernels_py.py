"""The hot counting kernels: pattern-map search, perfect matchings and
odd edge-sets.

Adjacency is passed as per-vertex integer bitmasks (``Graph.masks``), so
hosts of any size work.
"""

from __future__ import annotations

import sys

from .config import CapExceeded, cap
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

    Raises :class:`CapExceeded` once the candidate images tried, summed
    over the search nodes, pass ``SEARCH_VOLUME_CAP``, or when one frame per
    position would pass the recursion limit.
    """
    npos = len(parents)
    # parents[1] can only be (0,) or (); every later position needs a parent
    if rooted and (mode == MODE_HOM or npos < 2 or not all(parents[1:])):
        raise ValueError("rooted mode needs an injective mode and a "
                         "connected order with parents[1] == (0,)")
    if npos == 0:
        return 1
    # rec nests a frame per position on this stack, the ball walk three more
    limit = sys.getrecursionlimit()
    depth, frame = npos + 3, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    if depth > limit:
        raise CapExceeded(f"pattern on {npos} vertices: the map search needs "
                          f"{depth} stack frames, past the recursion limit {limit}")
    budget = volume = cap("SEARCH_VOLUME_CAP")
    full = (1 << n) - 1
    radius = [0] * npos
    for p, a in enumerate(anchor):
        if a >= 0:
            radius[a] = max(radius[a], anchor_dist[p])
    balls = [None] * npos  # balls[a][d]: host vertices within d of img[a]
    img = [0] * npos
    used = [0] * n  # used[u] bit v set <=> host edge {u,v} already an image
    root = [0, 0, 0, 0]  # lo, hi, host vertices above lo, above hi
    closes = rooted and any(0 in ps for ps in parents[2:])
    total = 0

    def rec(pos, acc):
        nonlocal total, budget
        ps = parents[pos]
        if ps:
            cand = adj[img[ps[0]]]
            for q in ps[1:]:
                cand &= adj[img[q]]
        else:
            cand = full
        if mode == MODE_EMB:
            for q in range(pos):
                cand &= ~(1 << img[q])
        if closes and pos == 1:
            cand &= (1 << adj[img[0]].bit_length() >> 1) - 1
        if rooted and pos > 1:
            if pos == 2:
                lo, hi = sorted(img[:2])
                root[:] = (lo, hi, full >> lo + 1 << lo + 1,
                           full >> hi + 1 << hi + 1)
            lo, hi, above_lo, above_hi = root
            for q in ps:
                u = img[q]
                cand &= above_hi if u == lo else (
                    above_lo | (1 << lo if u > hi else 0))
        a = anchor[pos]
        if a >= 0:
            cand &= balls[a][anchor_dist[pos]]
        budget -= cand.bit_count()
        if budget < 0:
            raise CapExceeded(f"SEARCH_VOLUME_CAP: the map search tried "
                              f"more than {volume} images")
        r = radius[pos]
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if r:
                balls[pos] = _balls(adj, w, r)
            wgt = acc
            if mode == MODE_EDGINJ:
                placed = 0
                ok = True
                for q in ps:
                    u = img[q]
                    if (used[u] >> w) & 1:
                        ok = False
                        break
                    used[u] |= 1 << w
                    used[w] |= 1 << u
                    placed += 1
                    if weights is not None:
                        wgt *= weights[u][w]
                if ok:
                    img[pos] = w
                    if pos + 1 == npos:
                        total += wgt
                    elif wgt:
                        rec(pos + 1, wgt)
                for q in ps[:placed]:
                    u = img[q]
                    used[u] &= ~(1 << w)
                    used[w] &= ~(1 << u)
            else:
                img[pos] = w
                if pos + 1 == npos:
                    total += 1
                else:
                    rec(pos + 1, 1)
        img[pos] = 0

    rec(0, 1)
    return total


def _pm_branches(alive, adj):
    """Submasks whose perfect-matching counts sum to that of ``alive``.

    Vertices of degree one are matched to their only neighbour in a loop;
    then a minimum-degree vertex is matched to each of its neighbours in
    turn.  [] means some vertex has no partner left, [0] means every vertex
    was matched by force.
    """
    while alive:
        best, bestdeg = -1, len(adj)
        rest = alive
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            d = (adj[v] & alive).bit_count()
            if d < bestdeg:
                best, bestdeg = v, d
                if d <= 1:
                    break
        if bestdeg == 0:
            return []
        nbrs = adj[best] & alive
        alive ^= 1 << best
        if bestdeg == 1:
            alive ^= nbrs
            continue
        out = []
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            out.append(alive ^ low)
        return out
    return [0]


def count_perfect_matchings(n, adj):
    """Exact perfect-matching count by branching on a minimum-degree vertex,
    memoised on the unmatched-vertex set.

    adj: per-vertex neighbor bitmasks.  The memo maps each unmatched-vertex
    bitmask reached to its count (0 for dead ends); it is bounded by
    ``PERFMATCH_CAP`` entries, past which :class:`CapExceeded` is raised.
    The search keeps its own stack, so its depth is not limited by Python's
    recursion limit.
    """
    if n % 2:
        return 0
    limit = cap("PERFMATCH_CAP")
    full = (1 << n) - 1
    memo = {0: 1}
    stack = [(full, None)]
    while stack:
        alive, branches = stack.pop()
        if branches is None:
            if alive in memo:
                continue
            branches = _pm_branches(alive, adj)
        pending = [b for b in branches if b not in memo]
        if pending:
            stack.append((alive, branches))
            stack.extend((b, None) for b in pending)
            continue
        memo[alive] = sum(memo[b] for b in branches)
        if len(memo) > limit:
            raise CapExceeded(
                f"PERFMATCH_CAP: {len(memo)} matching states exceed cap {limit}")
    return memo[full]


def count_odd_edge_sets(n, eu, ev, by_cardinality=False):
    """Count edge subsets inducing odd degree at every vertex, by implicit
    exhaustive enumeration (meet-in-the-middle over the edge list)."""
    m = len(eu)
    full = (1 << n) - 1
    half = m // 2

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

    left = table(0, half)
    right = table(half, m)
    counts = [0] * (m + 1)
    for par, cl in left.items():
        match = right.get(par ^ full)
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

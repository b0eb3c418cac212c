import gc
import itertools
import random
from collections import Counter
from math import factorial, perm

import pytest

from eicount import eihom
from eicount import oracles as O
from eicount import config
from eicount.config import CapExceeded, meter
from eicount.eihom import (build_representative, class_size,
                           count_edginj_poly, count_emb_small_vc,
                           enumerate_classes, free_colors, realized_classes,
                           reduce_isolated)
from eicount.graphs import (Graph, bits, make_pattern, minimum_vertex_cover,
                            quotient, vertex_cover_number)
from reference import all_partitions

K3 = make_pattern("K", 3)
K4 = make_pattern("K", 4)


def rand_graph(rng, n, p=0.45):
    return Graph(n, [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < p])


def core_of(h):
    """h without its isolated vertices and isolated-edge components."""
    return reduce_isolated(h, K4)[0]


def count_edge_injective_partitions(h):
    """Ground truth for the class bookkeeping: the number of edge-injective,
    loop-free vertex partitions of h, by direct enumeration."""
    return sum(quotient(h, blocks) is not None
               for blocks in all_partitions(range(h.n)))


def class_of(h, cover, partition):
    """The class of a vertex partition of h: its cover blocks as masks in
    order of least vertex, and a Counter of the betas of its other blocks
    (each the increasing tuple of its vertices' colors)."""
    inside = sum(1 << v for v in cover)
    masks = sorted((sum(1 << v for v in b) for b in partition),
                   key=lambda b: b & -b)
    blocks = tuple(b for b in masks if b & inside)
    colors = free_colors(h, blocks)
    return blocks, Counter(tuple(sorted(colors[v] for v in bits(b)))
                           for b in masks if not b & inside)


def brute_classes(h, cover):
    """Each class (cover blocks, allocation) of the loop-free,
    edge-injective partitions of h, mapped to its number of partitions, by
    listing every partition."""
    classes = Counter()
    for partition in all_partitions(range(h.n)):
        if quotient(h, partition) is not None:
            blocks, alloc = class_of(h, cover, partition)
            classes[blocks, frozenset(alloc.items())] += 1
    return classes


def steps():
    """A step counter for calling an eihom search directly, larger than any
    test input needs."""
    return [10**9] * 2


def wide_pattern():
    """Cover vertices 0..6, pairwise non-adjacent, and 24 free vertices, one
    per neighbourhood {i} and one for each of the first 17 pairs {i, j}:
    weak vertex-cover number 7, and 24 colors and 1,295 betas in the
    trivial sub-partition."""
    nbhds = ([(i,) for i in range(7)]
             + list(itertools.combinations(range(7), 2))[:17])
    return Graph(31, [(i, 7 + j) for j, nb in enumerate(nbhds) for i in nb])


def seeded_host():
    """G(20, 48), seed 61."""
    rng = random.Random(61)
    return Graph(20, rng.sample(list(itertools.combinations(range(20), 2)), 48))


class TestReduceIsolated:
    def test_single_vertex(self):
        core, factor = reduce_isolated(Graph(1, []), K4)
        assert core.n == 0 and factor == 4

    def test_single_edge(self):
        core, factor = reduce_isolated(make_pattern("K", 2), K4)
        assert core.n == 0 and factor == 2 * K4.m

    def test_two_edges_vs_oracle(self):
        h = make_pattern("kK2", 2)
        rng = random.Random(0)
        for _ in range(8):
            g = rand_graph(rng, rng.randrange(2, 7), 0.6)
            assert reduce_isolated(h, g) == (Graph(0, []), O.count_edginj(h, g))

    def test_small_host_zero(self):
        h = make_pattern("kK2", 3)
        assert reduce_isolated(h, make_pattern("K", 2))[1] == 0

    def test_host_with_fewer_edges_than_the_core(self):
        # a triangle and two isolated edges: every factor of a host with
        # fewer than 5 edges is clamped at 0, never multiplied out of sign
        h = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])
        rng = random.Random(9)
        hosts = [make_pattern("K", 2), make_pattern("P", 2)]
        hosts += [rand_graph(rng, rng.randrange(2, 6), 0.4) for _ in range(8)]
        for g in hosts:
            core, factor = reduce_isolated(h, g)
            assert core == K3
            if g.m < core.m:
                assert factor == O.count_edginj(h, g) == 0

    def test_wedge_untouched(self):
        wedge = make_pattern("P", 2)
        assert reduce_isolated(wedge, K4) == (wedge, 1)


class TestColors:
    def _fig4_pattern(self):
        # cover u,v,w,x = 0,1,2,3; free a..f = 4..9
        u, v, w, x, a, b, c, d, e, f = range(10)
        edges = [(x, w), (v, u), (x, f), (v, b), (w, e), (w, d), (v, c),
                 (u, b), (u, a)]
        return Graph(10, edges), (u, v, w, x)

    def test_running_example_colors(self):
        h, (u, v, w, x) = self._fig4_pattern()
        # blocks {u}, {v, x}, {w} are indices 0, 1, 2
        colors = free_colors(h, (1 << u, 1 << v | 1 << x, 1 << w))
        a, b, c, d, e, f = 4, 5, 6, 7, 8, 9
        assert colors[a] == 0b001
        assert colors[b] == 0b011
        assert colors[c] == colors[f] == 0b010
        assert colors[d] == colors[e] == 0b100

    def test_cover_vertex_has_no_color(self):
        h, cover = self._fig4_pattern()
        colors = free_colors(h, tuple(1 << v for v in cover))
        assert sorted(colors) == [4, 5, 6, 7, 8, 9]
        assert not set(cover) & set(colors)


class TestClasses:
    def test_cover_validation(self):
        with pytest.raises(ValueError, match="not a vertex cover"):
            list(enumerate_classes(K3, [0]))
        # a free isolated vertex has the empty color, which class sizes miss
        with pytest.raises(ValueError, match="outside it is isolated"):
            list(enumerate_classes(Graph(5, [(0, 1), (1, 2)]), [1]))

    def test_class_sums_match_partition_counts(self):
        rng = random.Random(1)
        cases = [make_pattern("P", 2), make_pattern("SS", 2),
                 make_pattern("kP2", 2), K3, make_pattern("C", 4)]
        cases += [rand_graph(rng, rng.randrange(2, 7)) for _ in range(20)]
        for h in cases:
            core = core_of(h)
            if core.n == 0:
                continue
            cover = minimum_vertex_cover(core)
            got = sum(size for _, _, size, _ in realized_classes(core, cover))
            assert got == count_edge_injective_partitions(core)

    def test_size_bounds(self):
        rng = random.Random(2)
        for _ in range(10):
            h = rand_graph(rng, 6)
            core = core_of(h)
            if core.n == 0:
                continue
            cover = minimum_vertex_cover(core)
            for blocks, alloc in enumerate_classes(core, cover):
                assert len(blocks) <= len(cover)
                assert sum(b.bit_count() for b in blocks) <= len(cover) ** 2
                for beta, mult in alloc:
                    assert 0 < mult <= core.n
                    assert list(beta) == sorted(set(beta))
                    union = 0
                    for k in beta:
                        assert k and not union & k
                        union |= k

    @staticmethod
    def random_cores():
        rng = random.Random(3)
        for _ in range(12):
            h = rand_graph(rng, rng.randrange(3, 7))
            core = core_of(h)
            if core.n:
                yield core

    def test_quotients_isomorphic_within_class(self):
        for core in self.random_cores():
            cover = minimum_vertex_cover(core)
            groups = {}
            for partition in all_partitions(range(core.n)):
                q = quotient(core, partition)
                if q is None:
                    continue
                blocks, alloc = class_of(core, cover, partition)
                groups.setdefault((blocks, frozenset(alloc.items())),
                                  []).append(q)
            for qs in groups.values():
                assert all(O.is_isomorphic(qs[0], q2) for q2 in qs[1:])

    def test_class_prune_is_exact(self):
        # the classes enumerated, with their allocations and sizes, are
        # exactly those of the loop-free, edge-injective partitions
        rng = random.Random(15)
        cores = [make_pattern("P", 3), make_pattern("C", 5),
                 make_pattern("C", 6), make_pattern("kP2", 2),
                 make_pattern("kP2", 3), make_pattern("W", 2),
                 make_pattern("Kab", 2, 3)]
        while len(cores) < 40:
            core = core_of(rand_graph(rng, rng.randrange(3, 8),
                                      rng.choice((0.3, 0.45))))
            if core.n and len(minimum_vertex_cover(core)) <= 3:
                cores.append(core)
        while len(cores) < 52:
            core = core_of(rand_graph(rng, rng.randrange(5, 9), 0.45))
            if core.n and len(minimum_vertex_cover(core)) == 4:
                cores.append(core)
        for core in cores:
            cover = minimum_vertex_cover(core)
            got = Counter()
            for blocks, alloc in enumerate_classes(core, cover):
                key = blocks, frozenset(alloc)
                assert key not in got
                got[key] = class_size(blocks, alloc, core)
                assert got[key] > 0  # Counter equality skips zero counts
            assert got == brute_classes(core, cover)

    @pytest.mark.parametrize("pattern, candidates", [
        (make_pattern("C", 6), 4), (make_pattern("kP2", 2), 12),
        (make_pattern("Kab", 2, 3), 1), (make_pattern("kP2", 3), 544)])
    def test_candidates_are_realized(self, monkeypatch, pattern, candidates):
        # one quotient per realized class, none per candidate
        calls = []
        monkeypatch.setattr(eihom, "quotient",
                            lambda *args: calls.append(1) or quotient(*args))
        core = core_of(pattern)
        cover = minimum_vertex_cover(core)
        assert sum(1 for _ in enumerate_classes(core, cover)) == candidates
        assert not calls
        assert sum(1 for _ in realized_classes(core, cover)) == candidates
        assert len(calls) == candidates

    def test_representative_infeasible_when_color_missing(self):
        # SS_2: center 0 covers everything; asking for a color no free
        # vertex has must report an empty class
        h = make_pattern("SS", 2)
        blocks = tuple(1 << v for v in sorted(minimum_vertex_cover(h)))
        bogus_color = 1 << len(blocks)  # a block index past the last
        assert bogus_color not in free_colors(h, blocks).values()
        alloc = (((bogus_color,), 1),)
        assert build_representative(blocks, alloc, h) is None
        assert class_size(blocks, alloc, h) == 0


class TestEmbSmallVc:
    def test_claw_into_k4(self):
        assert count_emb_small_vc(make_pattern("Kab", 1, 3), K4) == 24

    def test_single_vertex(self):
        assert count_emb_small_vc(Graph(1, []), K4) == 4

    def test_random_agrees_with_oracle(self):
        rng = random.Random(4)
        for _ in range(40):
            f = rand_graph(rng, rng.randrange(1, 8))
            if vertex_cover_number(f) > 3:
                continue
            g = rand_graph(rng, rng.randrange(1, 9), 0.5)
            assert count_emb_small_vc(f, g) == O.count_emb(f, g)

    def test_cover_bound(self):
        # no bound on the cover: K_6 (cover 5) into K_7 answers, and only
        # the work cap stops the placement
        assert count_emb_small_vc(make_pattern("K", 6),
                                  make_pattern("K", 7)) == perm(7, 6)

    def test_masks_read_once_per_call(self, monkeypatch):
        # the placement reads bound mask tuples, so the number of
        # Graph.masks reads does not grow with the host or the search
        reads = []
        masks = Graph.masks

        def counted(g):
            reads.append(1)
            return masks.fget(g)

        monkeypatch.setattr(Graph, "masks", property(counted))
        f = make_pattern("Kab", 2, 3)
        per_host = []
        for n in (10, 40):
            g = make_pattern("K", n)
            g.masks  # built before counting
            reads.clear()
            assert count_emb_small_vc(f, g) == perm(n, 5)
            per_host.append(len(reads))
        assert per_host[0] == per_host[1]

    @pytest.mark.parametrize("f, g, answer, max_calls", [
        (make_pattern("C", 6), make_pattern("C", 20), 0, 0),
        (make_pattern("C", 6), make_pattern("Kab", 4, 4), 1152, 48),
        (make_pattern("Kab", 2, 3), make_pattern("C", 12), 0, 0),
        (make_pattern("P", 3), make_pattern("C", 20), 40, 40)])
    def test_placement_prune_skips_hopeless_covers(self, monkeypatch, f, g,
                                                   answer, max_calls):
        # without the prune these make 6840, 336, 132 and 380 calls
        calls = []
        inner = eihom._independent_count

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(eihom, "_independent_count", counted)
        assert count_emb_small_vc(f, g) == O.count_emb(f, g) == answer
        assert len(calls) <= max_calls

    @pytest.mark.parametrize("f", [make_pattern("C", 6), make_pattern("kP2", 2)])
    def test_memo_counts_each_profile_once(self, monkeypatch, f):
        g = seeded_host()
        leaves, profiles = [], []
        leaf, count_profile = eihom._independent_count, eihom._count_profile

        def counted_leaf(*args):
            leaves.append(1)
            return leaf(*args)

        def counted_profile(profile, mults, work):
            profiles.append(profile)
            return count_profile(profile, mults, work)

        monkeypatch.setattr(eihom, "_independent_count", counted_leaf)
        monkeypatch.setattr(eihom, "_count_profile", counted_profile)
        sizes = {name: len(v) for name, v in vars(eihom).items()
                 if isinstance(v, (dict, list))}
        assert count_emb_small_vc(f, g) == O.count_emb(f, g) > 0
        assert len(profiles) < len(leaves)
        assert len(set(profiles)) == len(profiles)
        # the memo lives in the call: no module-level container grew
        assert sizes == {name: len(v) for name, v in vars(eihom).items()
                         if isinstance(v, (dict, list))}

    def test_many_cells_against_oracle(self):
        # independent vertices in at least three neighbourhood classes, so
        # the leaves split into many cells: C_6, K_{3,4} minus two disjoint
        # edges (classes {1,2}, {0,2}, {0,1,2}) and random patterns
        k34 = make_pattern("Kab", 3, 4)
        patterns = [make_pattern("C", 6),
                    Graph(7, [e for e in k34.edges if e not in ((0, 3), (1, 4))])]
        rng = random.Random(13)
        while len(patterns) < 18:
            f = rand_graph(rng, rng.randrange(5, 8), 0.4)
            cover = minimum_vertex_cover(f)
            if len(cover) <= 3 and len(
                    {f.masks[v] for v in range(f.n) if v not in cover}) >= 3:
                patterns.append(f)
        for f in patterns:
            cover = minimum_vertex_cover(f)
            assert len({f.masks[v] for v in range(f.n) if v not in cover}) >= 3
            for _ in range(4):
                g = rand_graph(rng, rng.randrange(7, 13), rng.choice((0.4, 0.6)))
                assert count_emb_small_vc(f, g) == O.count_emb(f, g)


def brute_independent_count(cand_sets, mults, n):
    """Injective maps of the class members into n host vertices, member of
    class k inside cand_sets[k], by listing every injective assignment."""
    members = [k for k, mult in enumerate(mults) for _ in range(mult)]
    return sum(all(cand_sets[k] >> w & 1 for k, w in zip(members, image))
               for image in itertools.permutations(range(n), len(members)))


class TestIndependentCount:
    @pytest.mark.parametrize("cand_sets, mults, n, answer", [
        ([0b0111, 0b1110], [2, 1], 4, 10),  # overlapping masks
        ([0b0111, 0], [1, 1], 4, 0),        # an empty mask
        ([0b0111, 0b0110], [2, 2], 4, 0),   # more members than vertices
        ([0b11111], [3], 5, 60),            # one class: (5)_3
        ([], [], 5, 1)])                    # no classes
    def test_cases(self, cand_sets, mults, n, answer):
        assert brute_independent_count(cand_sets, mults, n) == answer
        assert eihom._independent_count(cand_sets, mults, {}, steps()) == answer

    def test_random_masks_against_brute_force(self):
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randrange(1, 8)
            k = rng.randrange(0, 4)
            cand_sets = [rng.getrandbits(n) for _ in range(k)]
            mults = [rng.randrange(1, 4) for _ in range(k)]
            assert eihom._independent_count(cand_sets, mults, {}, steps()) == \
                brute_independent_count(cand_sets, mults, n)

    @staticmethod
    def random_family(rng):
        """Up to 4 masks over at most 12 vertices, some empty or repeated."""
        n = rng.randrange(1, 13)
        family = []
        for _ in range(rng.randrange(0, 5)):
            roll = rng.random()
            if roll < 0.15:
                family.append(0)
            elif roll < 0.3 and family:
                family.append(rng.choice(family))
            else:
                family.append(rng.getrandbits(n))
        return family, n

    def test_cell_profile_matches_vertex_signatures(self):
        rng = random.Random(14)
        families = [([], 4), ([0], 4), ([0, 0], 4), ([0b1011, 0b1011], 4)]
        families += [self.random_family(rng) for _ in range(300)]
        for cand_sets, n in families:
            want = {}
            for w in range(n):
                sig = sum(1 << k for k, c in enumerate(cand_sets) if c >> w & 1)
                if sig:
                    want[sig] = want.get(sig, 0) + 1
            profile = eihom._cell_profile(cand_sets)
            assert dict(zip(profile[::2], profile[1::2])) == want
            assert len(profile) == 2 * len(want)


class TestNoCyclicGarbage:
    """The search is made of plain functions and generators, so a count
    leaves nothing for the cyclic collector to free."""

    @pytest.mark.parametrize("count", [count_edginj_poly, count_emb_small_vc])
    @pytest.mark.parametrize("h", [make_pattern("C", 6), make_pattern("kP2", 2)])
    def test_count_leaves_no_cycles(self, count, h):
        g = seeded_host()
        gc.collect()
        gc.disable()
        try:
            assert count(h, g) > 0
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCountEdginjPoly:
    def test_isolated_edge_host_formula(self):
        rng = random.Random(5)
        for _ in range(6):
            g = rand_graph(rng, 6, 0.5)
            assert count_edginj_poly(make_pattern("K", 2), g) == 2 * g.m

    def test_wedge(self):
        assert count_edginj_poly(make_pattern("P", 2), K3) == 6

    def test_wedge_packings(self):
        rng = random.Random(6)
        for k in (1, 2, 3):
            h = make_pattern("kP2", k)
            for _ in range(4):
                g = rand_graph(rng, rng.randrange(3, 8), 0.5)
                assert count_edginj_poly(h, g) == O.count_edginj(h, g)

    def test_bound_enforced(self):
        with pytest.raises(CapExceeded, match="weak vertex-cover number 5 "
                                              "exceeds the bound 3"):
            count_edginj_poly(make_pattern("K", 6), K4)

    def test_large_star(self):
        # 41 vertices, cover {0}: the center goes to the host's center and
        # the leaves injectively to its 41 leaves
        assert count_edginj_poly(make_pattern("Kab", 1, 40),
                                 make_pattern("Kab", 1, 41)) == factorial(41)

    @pytest.mark.parametrize("count", [count_edginj_poly, count_emb_small_vc])
    @pytest.mark.parametrize("h", [Graph(0, []), make_pattern("kK2", 2),
                                   make_pattern("K", 6)])
    def test_negative_bound_rejected_first(self, count, h):
        # neither counter takes a bound any more, so a caller passing one
        # is refused before any work
        with pytest.raises(TypeError, match="bound"):
            count(h, K4, bound=-1)

    def test_random_corpus(self):
        rng = random.Random(7)
        done = 0
        while done < 60:
            h = rand_graph(rng, rng.randrange(1, 7), 0.4)
            g = rand_graph(rng, rng.randrange(1, 8), 0.5)
            if vertex_cover_number(h, weak=True) > 3:
                continue
            assert count_edginj_poly(h, g) == O.count_edginj(h, g)
            done += 1


# each eihom search, one small input, its answer and the steps it charges
# to SEARCH_VOLUME_CAP
STEPS = {
    # the centre's 3 host vertices, 3 complete placements of 1 class, and
    # the 1 slot of their one cell profile
    "placement": (lambda: count_emb_small_vc(make_pattern("P", 2), K3), 6, 7),
    # cover [0, 2]: 5 + 5 * 4 host vertices, 6 complete placements of 2
    # classes, and 5 slots over the distinct cell profiles, one of them not
    # its class's last cell
    "occupancy": (lambda: count_emb_small_vc(make_pattern("P", 3),
                                             make_pattern("P", 4)), 4, 42),
    # 4 sub-partition nodes (the centre opens a block, each leaf stays
    # free) and 4 allocation nodes (the root, multiplicities 0, 1 and 2)
    "classes": (lambda: list(enumerate_classes(make_pattern("P", 2), {1})),
                [((2,), (((1,), 2),))], 8),
}


class TestSteps:
    """Every eihom search charges SEARCH_VOLUME_CAP, so the cap, not the
    pattern's cover number, stops an input that asks too much work."""

    @pytest.mark.parametrize("name", sorted(STEPS))
    def test_search_passes_at_its_charge(self, monkeypatch, name):
        run, want, work = STEPS[name]
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", str(work))
        assert run() == want
        with meter():
            run()
            assert config._spent.get()["SEARCH_VOLUME_CAP"] == work
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", str(work - 1))
        with pytest.raises(CapExceeded, match=f"exceed cap {work - 1}$"):
            run()

    def test_class_search_steps_split(self):
        # P_2 with cover {1}: the sub-partition search pops 4 nodes, and
        # the allocation search 4 for its one sub-partition
        h = make_pattern("P", 2)
        work = steps()
        assert list(eihom._subpartitions(h.masks, [1, 0, 2], 1, work)) == [(2,)]
        assert work[1] - work[0] == 4
        work = steps()
        assert list(eihom._allocations([(1,)], {1: 2}, work)) == [(((1,), 2),)]
        assert work[1] - work[0] == 4

    def test_wide_pattern_class_search_is_charged(self, monkeypatch):
        # the allocation search over the 1,295 betas keeps its own stack,
        # so it neither passes the recursion limit nor runs on uncharged
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", "10000")
        with pytest.raises(CapExceeded, match="10001 class-search nodes"):
            list(enumerate_classes(wide_pattern(), range(7)))

    def test_wide_pattern_occupancy_is_charged(self, monkeypatch):
        # at the first complete placement into G(300, 0.5) the 24 classes
        # split into hundreds of cells, and the occupancy sum stops at the
        # cap after some 2,000 placement steps
        rng = random.Random(3)
        g = rand_graph(rng, 300, 0.5)
        monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", "100000")
        with pytest.raises(CapExceeded, match="placement steps"):
            count_emb_small_vc(wide_pattern(), g)


class TestHostPastBit63:
    """Neighbour bitmasks are unbounded ints: on a 70-vertex host most
    candidate bits lie above bit 63, and the triangles sit at 56..68."""

    # the first minimum cover of P_3, {0, 2}, is not adjacent
    PATTERNS = [make_pattern("W", 2), make_pattern("W", 1), make_pattern("Kab", 1, 3),
                make_pattern("P", 3)]

    @staticmethod
    def host():
        rng = random.Random(8)
        chords = {tuple(sorted(rng.sample(range(70), 2))) for _ in range(15)}
        chords |= {(i, i + 2) for i in range(56, 68, 2)}
        return Graph(70, set(make_pattern("C", 70).edges) | chords)

    @pytest.mark.parametrize("h", PATTERNS)
    def test_edginj_poly_agrees_with_oracle(self, h):
        g = self.host()
        assert count_edginj_poly(h, g) == O.count_edginj(h, g) > 0

    @pytest.mark.parametrize("f", PATTERNS)
    def test_emb_small_vc_agrees_with_oracle(self, f):
        g = self.host()
        assert count_emb_small_vc(f, g) == O.count_emb(f, g) > 0

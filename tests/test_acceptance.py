"""Acceptance gate: one test per criterion, every equality exact
(tolerance zero), each with its stated wall-clock budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb, factorial

from eicount import eihom, holant, linegraphs, oracles, reductions
from eicount.cli import main as cli_main
from eicount.exact import (falling_factorial, plant_polynomials,
                           recover_unknowns, required_inputs, sigma_expand)
from eicount.graphs import (Graph, line_graph, make_pattern,
                            minimum_vertex_cover, parse_graph,
                            serialize_graph, subdivide, vertex_cover_number)
from test_eihom import count_edge_injective_partitions

SEED = 987654321


def rand_graph(rng, n, p=0.5):
    return Graph(n, [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < p])


def _finish(criterion, t0, budget, detail):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"
    print(f"PASS criterion {criterion}: {detail} ({elapsed:.1f}s)")


def test_criterion_1_oracle_sandwich_and_partition_sum():
    t0 = time.time()
    rng = random.Random(SEED)
    pairs = 0
    while pairs < 200:
        h = rand_graph(rng, rng.randrange(1, 6), 0.45)
        g = rand_graph(rng, rng.randrange(1, 7), 0.5)
        emb = oracles.count_emb(h, g)
        einj = oracles.count_edginj(h, g)
        hom = oracles.count_hom(h, g)
        assert emb <= einj <= hom
        assert oracles.count_edginj_via_partition_sum(h, g) == einj
        pairs += 1
    _finish(1, t0, 60, f"{pairs} random pairs: Emb <= EdgInj <= Hom and "
            "partition-sum cross-check exact")


def test_criterion_2_main_algorithm():
    t0 = time.time()
    rng = random.Random(SEED + 1)
    pairs = 0
    while pairs < 200:
        h = rand_graph(rng, rng.randrange(1, 7), 0.4)
        if vertex_cover_number(h, weak=True) > 3:
            continue
        g = rand_graph(rng, rng.randrange(1, 8), 0.5)
        assert eihom.count_edginj_poly(h, g) == oracles.count_edginj(h, g)
        pairs += 1
    _finish(2, t0, 300, f"{pairs} random pairs: polynomial algorithm equals "
            "the edge-injective oracle exactly")


def test_criterion_3_class_bookkeeping():
    t0 = time.time()
    rng = random.Random(SEED + 2)
    graphs = [make_pattern("P", 2), make_pattern("SS", 2),
              make_pattern("kP2", 2), make_pattern("C", 4),
              make_pattern("K", 3)]
    graphs += [rand_graph(rng, rng.randrange(2, 7), 0.45) for _ in range(25)]
    checked = 0
    for h in graphs:
        core = eihom.reduce_isolated(h).core
        if core.n == 0:
            continue
        cover = minimum_vertex_cover(core)
        total = 0
        for rho_c, alloc, size, rep_q in eihom.realized_classes(core, cover):
            total += size
            # the representative's quotient must represent its whole class
            from eicount.graphs import all_partitions, quotient
            for blocks in all_partitions(range(core.n)):
                q = quotient(core, blocks)
                if q is None:
                    continue
                rho = sorted(tuple(sorted(b)) for b in blocks)
                cover_blocks = tuple(b for b in rho if set(b) & cover)
                if cover_blocks != rho_c.blocks:
                    continue
                alloc2 = {}
                for b in rho:
                    if set(b) & cover:
                        continue
                    beta = frozenset(eihom.color_of(v, rho_c, core) for v in b)
                    alloc2[beta] = alloc2.get(beta, 0) + 1
                if alloc2 == dict(alloc):
                    assert oracles.is_isomorphic(rep_q, q)
        assert total == count_edge_injective_partitions(core)
        checked += 1
    _finish(3, t0, 120, f"{checked} patterns: class sizes sum to the "
            "edge-injective partition count; quotients isomorphic in class")


def _colored_corpus(rng, count, kmax=3, max_edges=8):
    out = []
    while len(out) < count:
        n, k = rng.randrange(2, 7), rng.randrange(1, kmax + 1)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5]
        if not (k <= len(edges) <= max_edges):
            continue
        color = {e: rng.randrange(1, k + 1) for e in edges}
        if len(set(color.values())) < k:
            continue
        out.append(Graph(n, edges, color=color, k=k))
    return out


def test_criterion_4_holant():
    t0 = time.time()
    rng = random.Random(SEED + 3)
    corpus = _colored_corpus(rng, 15)
    for g in corpus:
        want = oracles.count_matchings(g, g.k, colorful=True)
        assert holant.col_holant(holant.build_match_holant(g)) == want
        assert holant.colmatch_via_subdivision(g) == want
        assert holant.colmatch_via_uncolored(g) == want
    # combined-signature expansion identity on random decompositions
    for g in corpus[:5]:
        omega = holant.build_match_holant(g)
        decomposition = {}
        for w in rng.sample(range(omega.n), min(2, omega.n)):
            inc = omega.incident(w)
            subsets = [frozenset(s) for r in range(len(inc) + 1)
                       for s in itertools.combinations(inc, r)]
            parts = [holant.TableSignature(
                {s: rng.randrange(-2, 3) for s in subsets})
                for _ in range(rng.randrange(2, 4))]
            coefs = [Fraction(rng.randrange(-2, 3)) for _ in parts]
            combined = holant.TableSignature(
                {s: sum(c * p.value(s, omega.ref_annot)
                        for c, p in zip(coefs, parts)) for s in subsets})
            omega = omega.replace_signature(w, combined)
            decomposition[w] = list(zip(coefs, parts))
        got = sum((c * holant.col_holant(sg)
                   for c, sg in holant.expand_combined(omega, decomposition)),
                  Fraction(0))
        assert got == holant.col_holant(omega)
    # matchgate boundary values
    for m in range(1, 6):
        refs = [("e", j) for j in range(m)]
        g2 = holant.build_gamma(1, refs, 2)
        for j1 in range(m):
            for j2 in range(m):
                val = holant.col_sig(g2, {2 * j1 + 1, 2 * j2 + 2})
                assert val == (m * m - 3 * m + 2 if j1 == j2
                               else m * m - 3 * m + 3)
    _finish(4, t0, 120, f"{len(corpus)} colored graphs: Holant identity, "
            "both pipelines, combined signatures and matchgate values exact")


def test_criterion_5_interpolation():
    t0 = time.time()
    rng = random.Random(SEED + 4)
    for trial in range(100):
        k = rng.randrange(0, 5)
        planted = {}
        for tot in range(required_inputs(k) + 1):
            for t in range(tot + 1):
                planted[(t, tot - t)] = rng.randrange(0, 51)
        polys = plant_polynomials(planted, required_inputs(k))
        got = recover_unknowns(k, polys)
        assert got == [planted[(t, k - t)] for t in range(k + 1)]
        assert all(type(v) is int for v in got)
    for gap in range(0, 5):
        sigs = sigma_expand(gap + 1, 1)
        for i, s in enumerate(sigs):
            assert s.coeff(i) == (-1) ** i * comb(2 * gap, i)
    _finish(5, t0, 30, "100 planted instances recovered exactly; "
            "sigma leading coefficients verified")


def test_criterion_6_wedge_pipeline():
    t0 = time.time()
    c6 = Graph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    instances = [(c6, [0, 1, 2]),
                 (Graph(5, [(0, 3), (3, 1), (1, 4), (4, 2)]), [0, 1, 2]),
                 (Graph(7, [(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)]),
                  [0, 1, 2, 3])]
    for g, left in instances:
        for k in range(0, 4):
            assert reductions.count_matchings_via_wedges(g, left, k) == \
                oracles.count_matchings(g, k)
    # alpha and beta identities by double enumeration
    g, left = instances[0]
    g0 = reductions.build_Gr(g, left, 0)
    alphas = {}
    for j in range(0, 4):
        alphas.update(reductions.wedge_alpha_oracle(g, left, j))
    for k in range(0, 4):
        assert alphas.get((k, 0), 0) == \
            oracles.count_matchings(g, k) * 2 ** k * factorial(k)
        for r in range(0, 4):
            gr = reductions.build_Gr(g, left, r)
            lhs = oracles.count_edginj(make_pattern("kP2", k), gr) if k else 1
            rhs = sum(alphas.get((gd, k - t - gd), 0) * comb(k, k - t)
                      * int(falling_factorial(len(left) + r - gd, 2 * t))
                      for t in range(k + 1) for gd in range(k - t + 1))
            assert lhs == rhs
    _finish(6, t0, 180, "wedge pipeline equals the matching oracle for "
            "k <= 3; alpha/beta identities verified by double enumeration")


def test_criterion_7_perfect_matchings_line():
    t0 = time.time()
    rng = random.Random(SEED + 5)
    # GF(2) odd-edge-set count against enumeration
    k4 = make_pattern("K", 4)
    assert linegraphs.count_odd_edge_sets(k4) == 8
    for _ in range(12):
        g = rand_graph(rng, rng.randrange(2, 8), 0.55)
        if g.m > 20:
            continue
        assert linegraphs.count_odd_edge_sets(g) == \
            oracles.count_odd_edge_sets_enum(g)
    # collar counts
    for ell in range(1, 5):
        collar = make_pattern("collar", ell)
        u, v = 0, collar.n - 1
        assert oracles.count_perfect_matchings(collar) == 1
        assert oracles.count_perfect_matchings(collar.remove_vertices([u])) == 0
        assert oracles.count_perfect_matchings(
            collar.remove_vertices([u, v])) == 3 ** ell
    # polynomial algorithm on line graphs of subdivided cubic graphs
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    petersen = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5),
                          (1, 6), (2, 7), (3, 8), (4, 9), (5, 7), (7, 9),
                          (9, 6), (6, 8), (8, 5)])
    for base in (k4, prism, make_pattern("Kab", 3, 3), petersen):
        lg = line_graph(subdivide(base, 1))
        assert lg.n <= 30
        assert linegraphs.count_perfmatch_3regular_line(lg) == \
            oracles.count_perfect_matchings(lg)
    assert linegraphs.count_perfmatch_3regular_line(
        line_graph(subdivide(k4, 1))) == 8
    # digit pipeline and round trip
    assert linegraphs.perfmatch_via_line_reduction(k4, 2) == 3
    for _ in range(20):
        radix = rng.randrange(2, 20)
        nd = rng.randrange(0, 5)
        digits = [rng.randrange(0, radix) for _ in range(nd + 1)]
        total = sum(d * radix ** (nd - t) for t, d in enumerate(digits))
        assert linegraphs.extract_digits_base_r(total, radix, nd) == digits
    _finish(7, t0, 120, "GF(2) odd edge-sets, collar counts, 3-regular line "
            "algorithm and digit pipeline all exact")


def test_criterion_8_reduction_pipelines():
    t0 = time.time()
    c4 = make_pattern("C", 4)
    k4 = make_pattern("K", 4)
    # apex: C4, k=2 -> 2 with the 6^k k! factor checked explicitly
    apex_host = Graph(5, list(c4.edges) + [(v, 4) for v in range(4)])
    raw = oracles.count_edginj(make_pattern("kK3", 2), apex_host)
    assert raw == 2 * 6 ** 2 * factorial(2)
    assert reductions.count_matchings_via_apex(c4, [0, 2], 2) == 2
    # star pipeline on the shared corpus
    c6 = Graph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    for k in range(0, 3):
        assert reductions.count_matchings_via_star(c6, [0, 1, 2], k) == \
            oracles.count_matchings(c6, k)
    # cycle gadget: K4, k=3 -> 4 simple triangles
    assert reductions.count_simple_cycles_via_gadget(k4, 3) == 4
    # weight removal at W=1: factor 2W+1 = 3
    c4w = Graph(4, c4.edges, weight={e: 1 for e in c4.edges})
    _, lhs, rhs = reductions.unweight_cycles(c4w, 4)
    assert lhs == rhs == 3 * oracles.count_edginj(c4, c4)
    # path-based edge-disjoint cycles
    assert reductions.ec_cycles_via_paths(k4, 3) == 4
    assert reductions.ec_cycles_via_paths(make_pattern("C", 5), 5) == 1
    _finish(8, t0, 300, "apex, star, cycle-gadget, weight-removal and "
            "path-based pipelines all exact")


def test_criterion_9_cli(capsys, tmp_path):
    t0 = time.time()
    code = cli_main(["verify", "all"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    # gen/count round-trip the file format byte-exactly
    code = cli_main(["gen", "collar", "2"])
    text = capsys.readouterr().out
    assert code == 0
    assert serialize_graph(parse_graph(text)) == text
    f = tmp_path / "collar.g"
    f.write_text(text)
    code = cli_main(["count", "perfmatch", "--host", str(f)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"
    _finish(9, t0, 300, "verify all exits 0; gen/count round-trip byte-exact")

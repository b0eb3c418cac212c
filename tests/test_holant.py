import itertools
import random
from fractions import Fraction

import pytest

from eicount import oracles as O
from eicount.config import CapExceeded
from eicount.graphs import Graph
from eicount.holant import (ANNOT_EQ, HW_LEQ1, SignatureGraph, TableSignature,
                            admissible_assignments, build_gamma,
                            build_match_holant, build_omega_bip, col_holant,
                            col_sig, colmatch_via_subdivision,
                            colmatch_via_uncolored, expand_combined,
                            gamma_coefficients, insert_matchgate,
                            strip_signatures, subdivision_terms)


def colored_corpus(seed, count, kmax=3, max_edges=8):
    rng = random.Random(seed)
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


SINGLE = Graph(2, [(0, 1)], color={(0, 1): 1}, k=1)
TRI = Graph(3, [(0, 1), (0, 2), (1, 2)],
            color={(0, 1): 1, (0, 2): 2, (1, 2): 3}, k=3)
C4A = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
            color={(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}, k=2)
C4B = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
            color={(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 3): 2}, k=2)


class TestColHolant:
    def test_single_edge(self):
        assert col_holant(build_match_holant(SINGLE)) == 1

    def test_triangle_hw(self):
        assert col_holant(build_match_holant(TRI)) == 0

    def test_c4(self):
        for g in (C4A, C4B):
            assert col_holant(build_match_holant(g)) == \
                O.count_matchings(g, 2, colorful=True)

    def test_empty(self):
        sg = SignatureGraph(0, [], [])
        assert col_holant(sg) == 1

    def test_match_holant_identity(self):
        for g in colored_corpus(seed=10, count=10):
            assert col_holant(build_match_holant(g)) == \
                O.count_matchings(g, g.k, colorful=True)

    def test_strip_reverses_build(self):
        for g in colored_corpus(seed=11, count=5):
            stripped, _ = strip_signatures(build_match_holant(g))
            assert stripped == g

    def test_dangling_rejected(self):
        gate = build_gamma(1, [("e", 0)], 1)
        with pytest.raises(ValueError):
            col_holant(gate)


class TestMatchgates:
    def test_gamma1_sizes(self):
        g = build_gamma(1, ["a", "b"], 1)
        assert g.n == 4 and len(g.edges) == 0 and len(g.dangling) == 4

    def test_gamma2_sizes(self):
        g = build_gamma(1, ["a", "b"], 2)
        assert g.n == 6 and len(g.edges) == 4

    def test_gamma_values(self):
        for m in range(1, 6):
            refs = [("e", j) for j in range(m)]
            g1, g2 = build_gamma(1, refs, 1), build_gamma(1, refs, 2)
            c1, c2 = gamma_coefficients(m)
            for j1 in range(m):
                for j2 in range(m):
                    x = {2 * j1 + 1, 2 * j2 + 2}
                    same = j1 == j2
                    assert col_sig(g1, x) == 1
                    assert col_sig(g2, x) == \
                        (m * m - 3 * m + 2 if same else m * m - 3 * m + 3)
                    assert c1 * col_sig(g1, x) + c2 * col_sig(g2, x) == \
                        (1 if same else 0)

    def test_insertion_preserves_holant(self):
        # at a subdivision vertex whose color class has one edge, both gamma
        # variants realize the annotation-equality signature exactly, so the
        # splice must keep the Holant value
        g = Graph(3, [(0, 1), (1, 2)], color={(0, 1): 1, (1, 2): 2}, k=2)
        omega = build_omega_bip(g)
        # for a single-edge color class the first gamma variant realizes the
        # annotation-equality signature on its own (the second never does:
        # its same-annotation value is m^2-3m+2 = 0 at m=1)
        for i, variant in [(1, 1), (2, 1)]:
            w = g.n + i - 1
            cls = [e for e in g.edges if g.color[e] == i]
            gate = build_gamma(i, cls, variant)
            order = []
            for e in cls:
                for side in (1, 2):
                    order += [t for t, (a, b, c, an) in enumerate(omega.edges)
                              if w in (a, b) and c == (i, side) and an == e]
            # exhaustive boundary-assignment comparison first
            inc = omega.incident(w)
            for ones in admissible_assignments(omega, w):
                labels = {order.index(r[1]) + 1 for r in ones}
                assert col_sig(gate, labels) == \
                    omega.sigs[w].value(ones, omega.ref_annot)
            spliced = insert_matchgate(omega, w, gate, order)
            assert col_holant(spliced) == col_holant(omega)

    def test_insertion_arity_mismatch(self):
        omega = build_match_holant(C4B)
        gate = build_gamma(1, ["x"], 1)
        with pytest.raises(ValueError):
            insert_matchgate(omega, 0, gate, [0])

    def test_insertion_color_mismatch(self):
        omega = build_match_holant(SINGLE)
        gate = SignatureGraph(1, [HW_LEQ1], [], [(0, 99, None)], colors=[99])
        with pytest.raises(ValueError):
            insert_matchgate(omega, 0, gate,
                             [i for i, e in enumerate(omega.edges) if 0 in e[:2]])


class TestExpandCombined:
    def test_empty_decomposition(self):
        omega = build_match_holant(C4B)
        terms = expand_combined(omega, {})
        assert len(terms) == 1 and terms[0][0] == 1
        assert col_holant(terms[0][1]) == col_holant(omega)

    def test_zero_coefficient(self):
        omega = build_match_holant(SINGLE)
        inc = omega.incident(0)
        f = TableSignature({frozenset(s): HW_LEQ1.value(frozenset(s), None)
                            for r in range(len(inc) + 1)
                            for s in itertools.combinations(inc, r)})
        zero = TableSignature({})
        omega2 = omega.replace_signature(0, f)
        terms = expand_combined(omega2, {0: [(1, f), (0, zero)]})
        assert len(terms) == 2
        total = sum((c * col_holant(sg) for c, sg in terms), Fraction(0))
        assert total == col_holant(omega2)

    def test_invalid_decomposition_rejected(self):
        omega = build_match_holant(SINGLE)
        with pytest.raises(ValueError):
            expand_combined(omega, {0: [(1, TableSignature({}))]})

    def test_identity_random(self):
        rng = random.Random(12)
        for g in colored_corpus(seed=13, count=6, kmax=2):
            omega = build_match_holant(g)
            marked = rng.sample(range(omega.n), min(2, omega.n))
            decomposition = {}
            for w in marked:
                inc = omega.incident(w)
                subsets = [frozenset(s) for r in range(len(inc) + 1)
                           for s in itertools.combinations(inc, r)]
                parts = [TableSignature({s: rng.randrange(-2, 3) for s in subsets})
                         for _ in range(rng.randrange(2, 4))]
                coefs = [Fraction(rng.randrange(-2, 3)) for _ in parts]
                combined = TableSignature(
                    {s: sum(c * p.value(s, omega.ref_annot)
                            for c, p in zip(coefs, parts)) for s in subsets})
                omega = omega.replace_signature(w, combined)
                decomposition[w] = list(zip(coefs, parts))
            want = col_holant(omega)
            got = sum((c * col_holant(sg)
                       for c, sg in expand_combined(omega, decomposition)),
                      Fraction(0))
            assert got == want


class TestOmegaBip:
    def test_single_edge_shape(self):
        ob = build_omega_bip(SINGLE)
        assert ob.n == 3 and len(ob.edges) == 2
        assert col_holant(ob) == 1

    def test_bipartite(self):
        for g in colored_corpus(seed=14, count=6):
            ob = build_omega_bip(g)
            assert all(u >= g.n or v >= g.n for u, v, _, _ in ob.edges)
            assert not any(u >= g.n and v >= g.n for u, v, _, _ in ob.edges)

    def test_identity(self):
        for g in colored_corpus(seed=15, count=8):
            assert col_holant(build_omega_bip(g)) == \
                O.count_matchings(g, g.k, colorful=True)


class TestIntValues:
    def test_verify_corpus_evaluates_in_ints(self):
        from eicount.verify import _colored_corpus
        for _, g in _colored_corpus():
            assert type(col_holant(build_match_holant(g))) is int
            assert type(col_holant(build_omega_bip(g))) is int
            assert type(colmatch_via_subdivision(g)) is int
            for i, cls in g.color_classes().items():
                for variant in (1, 2):
                    gamma = build_gamma(i, cls, variant)
                    for x in ((), (1,), (1, 2)):
                        assert type(col_sig(gamma, x)) is int

    def test_col_sig_obeys_holant_cap(self, monkeypatch):
        # colors (1,3) and (1,4) leave 4 x 4 assignments to enumerate
        gamma = build_gamma(1, [("e", j) for j in range(4)], 2)
        assert col_sig(gamma, {1, 2}) == 6
        monkeypatch.setenv("EICOUNT_HOLANT_CAP", "10")
        with pytest.raises(CapExceeded):
            col_sig(gamma, {1, 2})


class TestPipelines:
    def test_subdivision_single_edge(self):
        assert colmatch_via_subdivision(SINGLE) == 1

    def test_subdivision_query_shapes(self):
        for g in colored_corpus(seed=16, count=6):
            for _, q in subdivision_terms(g):
                assert q.n <= 4 * (g.n + g.m)
                assert q.m <= 4 * (g.n + g.m)
                assert q.k <= 4 * g.k

    def test_empty_color_class(self):
        g = Graph(3, [(0, 1), (1, 2)], color={(0, 1): 1, (1, 2): 1}, k=2)
        assert colmatch_via_subdivision(g) == 0
        assert colmatch_via_uncolored(g) == 0

    def test_uncolored_k1(self):
        g = Graph(3, [(0, 1), (1, 2)], color={(0, 1): 1, (1, 2): 1}, k=1)
        assert colmatch_via_uncolored(g) == 2

    def test_all_routes_agree(self):
        for g in colored_corpus(seed=17, count=12):
            want = O.count_matchings(g, g.k, colorful=True)
            assert colmatch_via_subdivision(g) == want
            assert colmatch_via_uncolored(g) == want


class TestAnnotationEq:
    def test_weight_two_only(self):
        annots = {("e", 0): "x", ("e", 1): "x", ("e", 2): "y"}
        look = annots.get
        assert ANNOT_EQ.value(frozenset([("e", 0), ("e", 1)]), look) == 1
        assert ANNOT_EQ.value(frozenset([("e", 0), ("e", 2)]), look) == 0
        assert ANNOT_EQ.value(frozenset([("e", 0)]), look) == 0
        assert ANNOT_EQ.value(frozenset(), look) == 0

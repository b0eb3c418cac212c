"""Every row of ``graphs.QUERIES`` under every counter of its map kind,
through ``oracles.count_query``, against the row's oracle and against
counts known another way."""

import itertools
import random
from math import factorial

import pytest

import test_eihom
from eicount import oracles
from eicount.graphs import COUNTERS, QUERIES, Graph, make_pattern

# k for the rows that build their pattern from it, up to patterns of cover
# 3 (3K2, P_4 and C_5), the bound of the edginj poly counter
K_RANGE = {"matchings": range(0, 4), "ec-paths": range(1, 5),
           "ec-cycles": range(3, 6), "cycles": range(3, 6)}


def random_graph(rng, n, p):
    return Graph(n, [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < p])


def hosts():
    """At least 200 seeded hosts on 0 to 9 vertices, the empty, one-vertex
    and disconnected hosts first, then the 70-vertex host whose neighbour
    masks run past bit 63."""
    rng = random.Random(27)
    out = [Graph(0, []), Graph(1, []), Graph(5, []),
           # a triangle, a path and an isolated vertex
           Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])]
    out += [random_graph(rng, rng.randrange(0, 10), rng.choice([0.3, 0.5, 0.7]))
            for _ in range(200)]
    return out + [test_eihom.TestHostPastBit63.host()]


def counters(quantity):
    kind = QUERIES[quantity][1]
    return [algo for algo, kinds in COUNTERS.items() if kind in kinds]


def test_every_row_agrees_with_its_oracle():
    rng = random.Random(28)
    checked = dict.fromkeys(QUERIES, 0)
    for g in hosts():
        small = g.n < 10
        for q, (build, _, _) in QUERIES.items():
            g_q = g
            if build is None:
                args = {"pattern": random_graph(rng, rng.randrange(1, 5), 0.6)}
            else:
                ks = K_RANGE[q] if small else [max(K_RANGE[q]) - 1]
                args = {"k": rng.choice(ks)}
            if q == "wedginj":  # every edge of weight w
                w = rng.randrange(0, 4)
                g_q = Graph(g.n, g.edges, weight=dict.fromkeys(g.edges, w))
            want = oracles.count_query(q, g_q, **args)
            for algo in counters(q):
                assert oracles.count_query(q, g_q, algo=algo, **args) == want, (
                    q, algo, g.n, g.edges, args)
            if q == "matchings":
                assert want == oracles.count_matchings(g, args["k"])
            if q == "wedginj":
                h = args["pattern"]
                assert want == w ** h.m * oracles.count_edginj(h, g)
            checked[q] += 1
    assert min(checked.values()) >= 205


@pytest.mark.parametrize("n", range(3, 9))
def test_cycles_of_a_clique(n):
    g = make_pattern("K", n)
    for k in range(3, min(n, 6) + 1):
        want = factorial(n) // (factorial(n - k) * 2 * k)
        for algo in counters("cycles"):
            assert oracles.count_query("cycles", g, k, algo=algo) == want


def test_counter_without_the_kind_is_bad_input():
    # the poly counters count emb and edginj maps, not hom maps
    with pytest.raises(ValueError, match="^the poly counter counts no hom "
                                         "maps; hom maps are counted by "
                                         "oracle$"):
        oracles.count_query("hom", make_pattern("K", 3),
                            pattern=make_pattern("P", 2), algo="poly")

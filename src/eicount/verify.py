"""Named identity-verification suites.

Each suite checks one family of counting identities on a small builtin
corpus, instance by instance, against the brute-force oracles.  Suites
return (instance-name, passed) pairs in a deterministic order; the CLI
prints them and folds the results into its exit code.
"""

from __future__ import annotations

import itertools
import random
from math import comb, factorial

from . import eihom, holant, linegraphs, oracles, reductions
from .exact import falling_factorial
from .graphs import (Graph, line_graph, make_pattern, subdivide,
                     vertex_cover_number, weight_gadget)

SEED = 20250810


def _random_graph(rng, n, p):
    return Graph(n, [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < p])


def _random_colored(rng, n, k, p=0.5):
    while True:
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        if len(edges) < k or len(edges) > 8:
            continue
        color = {e: rng.randrange(1, k + 1) for e in edges}
        if len(set(color.values())) == k:
            return Graph(n, edges, color=color, k=k)


def _bipartite_instances():
    """Bipartite hosts with right degrees <= 2 and left pairs sharing at
    most one neighbor, as (graph, left) pairs."""
    c6 = Graph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    return [
        ("c6", c6, [0, 1, 2]),
        ("path5", Graph(5, [(0, 3), (3, 1), (1, 4), (4, 2)]), [0, 1, 2]),
        ("mixed", Graph(7, [(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)]),
         [0, 1, 2, 3]),
    ]


def _colored_corpus(count=8, kmax=3):
    rng = random.Random(SEED)
    out = []
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
               color={(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 3): 2}, k=2)
    out.append(("c4-1122", c4))
    single = Graph(2, [(0, 1)], color={(0, 1): 1}, k=1)
    out.append(("edge", single))
    for i in range(count):
        k = rng.randrange(1, kmax + 1)
        out.append((f"rand{i}", _random_colored(rng, rng.randrange(3, 7), k)))
    return out


def suite_match_holant():
    out = []
    for name, g in _colored_corpus():
        want = oracles.count_matchings(g, g.k, colorful=True)
        got = holant.col_holant(holant.build_match_holant(g))
        out.append((f"match-holant/{name}", got == want))
        ob = holant.build_omega_bip(g)
        out.append((f"match-holant/omega-bip-{name}", holant.col_holant(ob) == want))
        bip_ok = all(any(w >= g.n for w in (u, v)) for u, v, _, _ in ob.edges)
        out.append((f"match-holant/omega-bip-bipartite-{name}", bip_ok))
    return out


def suite_combined_sig():
    rng = random.Random(SEED + 1)
    out = []
    for trial in range(6):
        g = _random_colored(rng, rng.randrange(3, 6), rng.randrange(1, 3))
        omega = holant.build_match_holant(g)
        marked = rng.sample(range(omega.n), min(2, omega.n))
        decomposition = {}
        for w in marked:
            inc = omega.incident(w)
            tables = []
            for _ in range(rng.randrange(2, 4)):
                tables.append(holant.TableSignature(
                    {frozenset(s): rng.randrange(-2, 3)
                     for r in range(len(inc) + 1)
                     for s in itertools.combinations(inc, r)}))
            coefs = [rng.randrange(-2, 3) for _ in tables]
            acc = {}
            for rr in range(len(inc) + 1):
                for s in itertools.combinations(inc, rr):
                    acc[frozenset(s)] = sum(
                        c * t.value(frozenset(s), omega.ref_annot)
                        for c, t in zip(coefs, tables))
            omega = omega.replace_signature(w, holant.TableSignature(acc))
            decomposition[w] = list(zip(coefs, tables))
        want = holant.col_holant(omega)
        terms = holant.expand_combined(omega, decomposition)
        got = sum(c * holant.col_holant(sg) for c, sg in terms)
        out.append((f"combined-sig/rand{trial}", got == want))
    return out


def suite_gamma():
    out = []
    for m in range(1, 6):
        edges = [("edge", j) for j in range(m)]
        g1 = holant.build_gamma(1, edges, 1)
        g2 = holant.build_gamma(1, edges, 2)
        const = m * m - 3 * m + 3
        ok1 = ok2 = okc = True
        for j1 in range(m):
            for j2 in range(m):
                x = {2 * j1 + 1, 2 * j2 + 2}
                s1 = holant.col_sig(g1, x)
                s2 = holant.col_sig(g2, x)
                ok1 &= s1 == 1
                want2 = m * m - 3 * m + 2 if j1 == j2 else m * m - 3 * m + 3
                ok2 &= s2 == want2
                f_val = 1 if j1 == j2 else 0
                okc &= const * s1 - s2 == f_val
        out.append((f"gamma/colsig1-m{m}", ok1))
        out.append((f"gamma/colsig2-m{m}", ok2))
        out.append((f"gamma/linear-combination-m{m}", okc))
    return out


def suite_subdiv():
    out = []
    for name, g in _colored_corpus(count=5):
        want = oracles.count_matchings(g, g.k, colorful=True)
        got = holant.colmatch_via_subdivision(g)
        out.append((f"subdiv/{name}", got == want))
        terms = holant.subdivision_terms(g)
        size_ok = all(q.n <= 4 * (g.n + g.m) and q.m <= 4 * (g.n + g.m)
                      and q.k <= 4 * g.k for _, q in terms)
        out.append((f"subdiv/query-sizes-{name}", size_ok))
        out.append((f"subdiv/term-count-{name}",
                    len(terms) in (0, 2 ** g.k)))
    return out


def suite_wedge():
    out = []
    for name, g, left in _bipartite_instances():
        for k in range(0, 4):
            want = oracles.count_matchings(g, k)
            got = reductions.count_matchings_via_wedges(g, left, k)
            out.append((f"wedge/{name}-k{k}", got == want))
    # the alpha / beta identities by double enumeration
    name, g, left = _bipartite_instances()[0]
    g0 = reductions.build_Gr(g, left, 0)
    n_left = len(left)
    alphas = {}
    for j in range(0, 4):
        for (gd, b), c in reductions.wedge_alpha_oracle(g, left, j).items():
            alphas[(gd, b)] = c
    for k in range(0, 4):
        ok = alphas.get((k, 0), 0) == oracles.count_matchings(g, k) * 2 ** k * factorial(k)
        out.append((f"wedge/alpha-k{k}", ok))
    ok = True
    for k in range(0, 4):
        for r in range(0, 4):
            lhs = reductions.wedge_packings_in_hub(g0, r, k)
            rhs = 0
            for t in range(k + 1):
                for gd in range(k - t + 1):
                    b = k - t - gd
                    rhs += (alphas.get((gd, b), 0) * comb(k, gd + b)
                            * int(falling_factorial(n_left + r - gd, 2 * t)))
            ok &= lhs == rhs
    out.append(("wedge/beta-identity", ok))
    return out


def suite_apex():
    out = []
    c4 = make_pattern("C", 4)
    out.append(("apex/c4-k2", reductions.count_matchings_via_apex(c4, [0, 2], 2) == 2))
    for name, g, left in _bipartite_instances():
        for k in range(0, 3):
            want = oracles.count_matchings(g, k)
            got = reductions.count_matchings_via_apex(g, left, k)
            out.append((f"apex/{name}-k{k}", got == want))
    return out


def suite_star():
    out = []
    for name, g, left in _bipartite_instances():
        for k in range(0, 3):
            want = oracles.count_matchings(g, k)
            got = reductions.count_matchings_via_star(g, left, k)
            out.append((f"star/{name}-k{k}", got == want))
    return out


def suite_collar():
    out = []
    for ell in range(1, 5):
        collar = make_pattern("collar", ell)
        u, v = 0, collar.n - 1
        out.append((f"collar/full-{ell}",
                    oracles.count_perfect_matchings(collar) == 1))
        out.append((f"collar/one-end-{ell}",
                    oracles.count_perfect_matchings(collar.remove_vertices([u])) == 0))
        out.append((f"collar/both-ends-{ell}",
                    oracles.count_perfect_matchings(collar.remove_vertices([u, v]))
                    == 3 ** ell))
    for ell in range(1, 4):
        wire = make_pattern("barbed", ell)
        out.append((f"collar/line-of-barbed-wire-{ell}",
                    oracles.is_isomorphic(line_graph(wire), make_pattern("collar", ell))))
    # the digit pipeline built from collars
    k4 = make_pattern("K", 4)
    out.append(("collar/pipeline-k4",
                linegraphs.perfmatch_via_line_reduction(k4, 2)
                == oracles.count_perfect_matchings(k4)))
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    out.append(("collar/pipeline-prism",
                linegraphs.perfmatch_via_line_reduction(prism, 2)
                == oracles.count_perfect_matchings(prism)))
    try:
        linegraphs.perfmatch_via_line_reduction(k4, 1)
        out.append(("collar/overflow-detected", False))
    except linegraphs.DigitOverflowError:
        out.append(("collar/overflow-detected", True))
    return out


def suite_odd_gf2():
    rng = random.Random(SEED + 2)
    out = []
    k4 = make_pattern("K", 4)
    out.append(("odd-gf2/k4", linegraphs.count_odd_edge_sets(k4) == 8))
    for i in range(8):
        g = _random_graph(rng, rng.randrange(2, 8), 0.55)
        if g.m > 20:
            continue
        got = linegraphs.count_odd_edge_sets(g)
        want = oracles.count_odd_edge_sets_enum(g)
        out.append((f"odd-gf2/rand{i}", got == want))
    sub_k4 = line_graph(subdivide(k4, 1))
    out.append(("odd-gf2/3regular-line-subdivided-k4",
                linegraphs.count_perfmatch_3regular_line(sub_k4)
                == oracles.count_perfect_matchings(sub_k4)))
    return out


def suite_cycle_gadget():
    out = []
    k4 = make_pattern("K", 4)
    gb, weighted_edges = reductions.build_cycle_gadget(k4, 1)
    out.append(("cycle-gadget/separation",
                reductions.min_weighted_edge_separation(gb, weighted_edges) >= 5))
    out.append(("cycle-gadget/k4-k3",
                reductions.count_simple_cycles_via_gadget(k4, 3)
                == oracles.count_simple_cycles(k4, 3)))
    c5 = make_pattern("C", 5)
    out.append(("cycle-gadget/c5-k3",
                reductions.count_simple_cycles_via_gadget(c5, 3) == 0))
    diamond = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    out.append(("cycle-gadget/diamond-k3",
                reductions.count_simple_cycles_via_gadget(diamond, 3)
                == oracles.count_simple_cycles(diamond, 3)))
    return out


def suite_unweight():
    out = []
    for j in range(1, 4):
        walks = reductions.gadget_walks(j)
        ok = (len(walks) == j and all(l == 2 * j - 1 for l, _ in walks))
        gad, _, _, marked = weight_gadget(j)
        per_edge_ok = all(
            sum(1 for _, es in walks if e in es) == 1 for e in marked)
        out.append((f"unweight/gadget-walks-{j}", ok and per_edge_ok))
        want_longest = 0 if j == 1 else 4 * j - 2
        out.append((f"unweight/gadget-longest-cycle-{j}",
                    reductions.longest_edge_disjoint_cycle(gad) == want_longest))
    c4w = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                weight={(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
    _, lhs, rhs = reductions.unweight_cycles(c4w, 4)
    out.append(("unweight/w1-k4", lhs == rhs and lhs == 3 * oracles.count_edginj(
        make_pattern("C", 4), Graph(4, c4w.edges))))
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
              weight={(0, 1): 2, (1, 2): 1, (2, 3): 1, (0, 3): 1, (0, 2): 1})
    _, lhs, rhs = reductions.unweight_cycles(g, 4)
    out.append(("unweight/w2-k4", lhs == rhs))
    return out


def suite_ec_paths():
    rng = random.Random(SEED + 3)
    out = []
    k4 = make_pattern("K", 4)
    out.append(("ec-paths/k4-k3",
                reductions.ec_cycles_via_paths(k4, 3)
                == oracles.count_edge_disjoint(k4, 3, "cycle")))
    c5 = make_pattern("C", 5)
    out.append(("ec-paths/c5-k5", reductions.ec_cycles_via_paths(c5, 5) == 1))
    for i in range(5):
        g = _random_graph(rng, rng.randrange(4, 7), 0.6)
        k = rng.choice([3, 4, 5])
        got = reductions.ec_cycles_via_paths(g, k)
        want = oracles.count_edge_disjoint(g, k, "cycle")
        out.append((f"ec-paths/rand{i}-k{k}", got == want))
    return out


def suite_eihom_poly():
    rng = random.Random(SEED + 4)
    out = []
    checked = 0
    trial = 0
    while checked < 25:
        trial += 1
        h = _random_graph(rng, rng.randrange(1, 7), 0.4)
        g = _random_graph(rng, rng.randrange(1, 8), 0.5)
        if vertex_cover_number(h, weak=True) > 3:
            continue
        got = eihom.count_edginj_poly(h, g)
        want = oracles.count_edginj(h, g)
        out.append((f"eihom-poly/rand{trial}", got == want))
        checked += 1
    return out


SUITES = {
    "match-holant": suite_match_holant,
    "combined-sig": suite_combined_sig,
    "gamma": suite_gamma,
    "subdiv": suite_subdiv,
    "wedge": suite_wedge,
    "apex": suite_apex,
    "star": suite_star,
    "collar": suite_collar,
    "odd-gf2": suite_odd_gf2,
    "cycle-gadget": suite_cycle_gadget,
    "unweight": suite_unweight,
    "ec-paths": suite_ec_paths,
    "eihom-poly": suite_eihom_poly,
}


def run_suites(names):
    """Run the named suites (or all of them); returns the combined,
    deterministically ordered (instance, passed) list."""
    if names == ["all"]:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
        results.extend(SUITES[name]())
    return results

"""Every pipeline that divides a count by an orbit size, or needs an
integral coefficient, checks it with an explicit ArithmeticError rather
than an ``assert`` (which ``python -O`` strips).  Each test feeds one
pipeline a count that is off by one and expects the error instead of a
truncated answer."""

from fractions import Fraction

import pytest

from eicount import _kernels_py, holant, oracles, reductions
from eicount.graphs import Graph, make_pattern

C6 = Graph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
C6_LEFT = [0, 1, 2]
K4 = make_pattern("K", 4)


def skew_first_call(monkeypatch, module, name, delta=1):
    """Replace ``module.name`` by a wrapper whose first result is off by
    ``delta``; later calls return the true value."""
    real = getattr(module, name)
    calls = []

    def skewed(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs) + (delta if len(calls) == 1 else 0)

    monkeypatch.setattr(module, name, skewed)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wedge_pipeline(monkeypatch, k):
    skew_first_call(monkeypatch, reductions, "_packings_from_profile")
    with pytest.raises(ArithmeticError, match="wedge-packing counts"):
        reductions.count_matchings_via_wedges(C6, C6_LEFT, k)


@pytest.mark.parametrize("k", [1, 2])
def test_wedge_pipeline_checks_every_count(monkeypatch, k):
    # beta_j is interpolated through 2j + 2 counts for j = 0..3k, so one
    # count off by one anywhere lifts its degree past 2j
    real = reductions._packings_from_profile
    calls = []
    skew = {"at": 0}

    def skewed(*args):
        calls.append(args)
        return real(*args) + (len(calls) == skew["at"])

    monkeypatch.setattr(reductions, "_packings_from_profile", skewed)
    assert reductions.count_matchings_via_wedges(C6, C6_LEFT, k) == \
        oracles.count_matchings(C6, k)
    n_calls = len(calls)
    assert n_calls == (3 * k + 1) * (3 * k + 2)
    for at in range(1, n_calls + 1):
        calls.clear()
        skew["at"] = at
        with pytest.raises(ArithmeticError):
            reductions.count_matchings_via_wedges(C6, C6_LEFT, k)


@pytest.mark.parametrize("k", [1, 2])
def test_apex_pipeline(monkeypatch, k):
    skew_first_call(monkeypatch, reductions, "count_edginj")
    with pytest.raises(ArithmeticError, match="triangle-packing count"):
        reductions.count_matchings_via_apex(C6, C6_LEFT, k)


@pytest.mark.parametrize("k", [1, 2])
def test_star_pipeline(monkeypatch, k):
    skew_first_call(monkeypatch, reductions, "count_edginj")
    with pytest.raises(ArithmeticError, match="anchored star count"):
        reductions.count_matchings_via_star(C6, C6_LEFT, k)


def test_cycle_gadget_count(monkeypatch):
    skew_first_call(monkeypatch, reductions, "count_edginj_weighted")
    with pytest.raises(ArithmeticError, match="divide by 12k"):
        reductions.count_simple_cycles_via_gadget(K4, 3)


def test_cycle_gadget_leading_coefficient(monkeypatch):
    # p(0) off by one moves the leading coefficient by 1/3! = 1/6
    skew_first_call(monkeypatch, reductions, "cycle_gadget_polynomial_value")
    with pytest.raises(ArithmeticError, match="even integer"):
        reductions.count_simple_cycles_via_gadget(K4, 3)


def test_ec_cycles_via_paths(monkeypatch):
    skew_first_call(monkeypatch, reductions, "count_edginj")
    with pytest.raises(ArithmeticError, match="orientation quadruples"):
        reductions.ec_cycles_via_paths(K4, 3)


@pytest.mark.parametrize("kind,k", [("cycle", 3), ("path", 2)])
def test_edge_disjoint_orbits(monkeypatch, kind, k):
    skew_first_call(monkeypatch, oracles, "count_edginj")
    with pytest.raises(ArithmeticError, match="orbit size"):
        oracles.count_edge_disjoint(K4, k, kind)


def test_simple_cycle_orbits(monkeypatch):
    skew_first_call(monkeypatch, oracles, "count_emb")
    with pytest.raises(ArithmeticError, match="orbit size"):
        oracles.count_simple_cycles(K4, 3)


@pytest.mark.parametrize("pipeline", [
    lambda: oracles.count_edge_disjoint(K4, 3, "cycle"),
    lambda: oracles.count_simple_cycles(K4, 3),
    lambda: reductions.count_simple_cycles_via_gadget(K4, 3)])
def test_rooted_cycle_count_off_by_one(monkeypatch, pipeline):
    # the rooted search counts each orbit of C_L once per orientation of
    # its root edge, so one map too many leaves half an orbit
    real = _kernels_py.count_maps
    rooted_calls = []

    def skewed(*args):
        rooted = args[-1]
        rooted_calls.append(rooted)
        return real(*args) + (1 if rooted else 0)

    monkeypatch.setattr(_kernels_py, "count_maps", skewed)
    with pytest.raises(ArithmeticError):
        pipeline()
    assert rooted_calls[0] is True


def test_subdivision_pipeline(monkeypatch):
    # every subdivision coefficient is an integer, so an off-by-one count
    # keeps the sum integral; half a matching makes it non-integral, since
    # the first term's coefficient prod(m^2 - 3m + 3) is odd
    g = Graph(3, [(0, 1), (1, 2)], color={(0, 1): 1, (1, 2): 2}, k=2)
    skew_first_call(monkeypatch, holant, "count_matchings", Fraction(1, 2))
    with pytest.raises(ArithmeticError, match="colorful matching count"):
        holant.colmatch_via_subdivision(g)


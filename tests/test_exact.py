import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import eicount
from eicount.exact import (Polynomial, _moment_matrix, falling_factorial,
                           gf2_solution_count, interpolate, multinomial,
                           plant_polynomials, recover_unknowns,
                           required_inputs, sigma_expand, solve_rational)
from eicount.graphs import make_pattern
from eicount.oracles import count_odd_edge_sets_enum


class TestFallingFactorial:
    def test_scalar(self):
        assert falling_factorial(5, 2) == 20
        assert type(falling_factorial(5, 2)) is int
        assert falling_factorial(Fraction(7, 2), 0) == 1

    def test_polynomial(self):
        y = Polynomial.x()
        assert falling_factorial(y - 1, 2).coeffs == (2, -3, 1)


class TestInterpolate:
    def test_constant(self):
        assert interpolate([(0, 1), (1, 1)]).coeffs == (1,)

    def test_square(self):
        assert interpolate([(0, 0), (1, 1), (2, 4)]).coeffs == (0, 0, 1)

    def test_integer_nodes_give_int_coefficients(self):
        rng = random.Random(4)
        for _ in range(50):
            coeffs = [rng.randrange(-30, 31) for _ in range(rng.randrange(1, 12))]
            p = Polynomial(coeffs)
            start = rng.randrange(-5, 6)
            pts = [(x, p(x)) for x in range(start, start + len(coeffs) + 2)]
            got = interpolate(pts)
            assert got == p
            assert all(type(c) is int for c in got.coeffs)

    def test_non_integral_coefficients_are_fractions(self):
        # C(x, 2) is integer-valued at every integer but not integral
        p = interpolate([(0, 0), (1, 0), (2, 1)])
        assert p.coeffs == (0, Fraction(-1, 2), Fraction(1, 2))
        assert [type(c) for c in p.coeffs] == [int, Fraction, Fraction]

    def test_duplicate_x(self):
        with pytest.raises(ValueError):
            interpolate([(1, 0), (1, 1)])

    def test_round_trip(self):
        rng = random.Random(0)
        for _ in range(20):
            coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                      for _ in range(rng.randrange(1, 11))]
            p = Polynomial(coeffs)
            pts = [(x, p(x)) for x in range(len(coeffs))]
            assert interpolate(pts) == p


def gauss_jordan(matrix, rhs):
    """Reference solver: plain Gauss-Jordan elimination over Fraction."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def rand_entry(rng, rational):
    if rational and rng.random() < 0.5:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return rng.randrange(-6, 7)


class TestSolve:
    def test_matches_gauss_jordan(self):
        rng = random.Random(5)
        solved = 0
        for trial in range(400):
            n = rng.randrange(1, 9)
            rational = trial % 2 == 1
            a = [[rand_entry(rng, rational) for _ in range(n)]
                 for _ in range(n)]
            b = [rand_entry(rng, rational) for _ in range(n)]
            try:
                want = gauss_jordan(a, b)
            except ValueError:
                with pytest.raises(ValueError, match="singular matrix"):
                    solve_rational(a, b)
                continue
            got = solve_rational(a, b)
            assert got == want
            assert all(type(x) is int or x.denominator > 1 for x in got)
            solved += 1
        assert solved > 300

    def test_integral_solution_stays_int(self):
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randrange(1, 9)
            x = [rng.randrange(-50, 51) for _ in range(n)]
            while True:
                a = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
                try:
                    gauss_jordan(a, [0] * n)
                    break
                except ValueError:
                    continue
            b = [sum(c * v for c, v in zip(row, x)) for row in a]
            got = solve_rational(a, b)
            assert got == x and all(type(v) is int for v in got)

    def test_singular_systems_raise(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randrange(2, 9)
            a = [[rand_entry(rng, True) for _ in range(n)] for _ in range(n - 1)]
            # last row: a random combination of the others
            mix = [rng.randrange(-3, 4) for _ in range(n - 1)]
            a.append([sum(m * row[j] for m, row in zip(mix, a))
                      for j in range(n)])
            rng.shuffle(a)
            with pytest.raises(ValueError, match="singular matrix"):
                solve_rational(a, [rand_entry(rng, True) for _ in range(n)])

    def test_identity(self):
        assert solve_rational([[1, 0], [0, 1]], [3, 4]) == [3, 4]

    def test_vandermonde(self):
        sol = solve_rational([[1, 0], [1, 1]], [2, 5])
        assert sol == [2, 3]

    def test_random_consistency(self):
        rng = random.Random(1)
        for _ in range(15):
            n = 5
            a = [[Fraction(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(n)]
            b = [Fraction(rng.randrange(-4, 5)) for _ in range(n)]
            try:
                x = solve_rational(a, b)
            except ValueError:
                continue
            for row, rhs in zip(a, b):
                assert sum(c * v for c, v in zip(row, x)) == rhs

    def test_singular(self):
        with pytest.raises(ValueError):
            solve_rational([[1, 1], [2, 2]], [1, 2])


class TestSigmaExpand:
    def test_trivial(self):
        assert sigma_expand(2, 2) == [Polynomial.const(1)]

    def test_degree_one(self):
        s = sigma_expand(3, 2)
        assert s[0].coeffs == (1,)
        assert s[1].coeffs == (-1, -2)   # -(2t+1)
        assert s[2].coeffs == (0, 1, 1)  # t^2+t

    def test_leading_coefficients(self):
        for gap in range(0, 5):
            sigs = sigma_expand(gap + 2, 2)
            for i, s in enumerate(sigs):
                assert s.degree <= i
                assert s.coeff(i) == (-1) ** i * comb(2 * gap, i)

    def test_reconstructs_falling_factorial(self):
        # substituting a concrete t must reproduce (y-t)_{2(r-k)}
        y = Polynomial.x()
        for r, k, t in [(3, 1, 0), (4, 2, 3), (5, 2, 1)]:
            sigs = sigma_expand(r, k)
            d = 2 * (r - k)
            rebuilt = Polynomial()
            for i, s in enumerate(sigs):
                rebuilt = rebuilt + s(t) * Polynomial([0] * (d - i) + [1])
            assert rebuilt == falling_factorial(y - t, d)


class TestRecovery:
    def test_k0(self):
        assert recover_unknowns(0, plant_polynomials({(0, 0): 7},
                                                     required_inputs(0))) == [7]

    def test_k1_example(self):
        ps = plant_polynomials({(0, 1): 2, (1, 0): 3}, required_inputs(1))
        assert recover_unknowns(1, ps) == [2, 3]

    def test_planted_instances(self):
        rng = random.Random(2)
        for trial in range(30):
            k = rng.randrange(0, 5)
            a = {}
            for tot in range(required_inputs(k) + 1):
                for t in range(tot + 1):
                    a[(t, tot - t)] = rng.randrange(0, 51)
            ps = plant_polynomials(a, required_inputs(k))
            assert all(type(c) is int for p in ps for c in p.coeffs)
            got = recover_unknowns(k, ps)
            assert got == [a[(t, k - t)] for t in range(k + 1)]

    def test_not_enough_inputs(self):
        with pytest.raises(ValueError):
            recover_unknowns(2, plant_polynomials({(0, 0): 1}, 3))

    def test_moment_matrix_nonsingular_through_level_60(self):
        # the level-L system has entries C(2(r-j), L-2j) * C(r, j) at nodes
        # r = ceil(L/2) + j, so it depends on L alone; nonsingular through
        # L = 60 (k <= 20) means the recovery never needs other nodes
        for level in range(1, 61):
            unknowns = level // 2 + 1
            nodes = [(level + 1) // 2 + j for j in range(unknowns)]
            matrix = [[comb(2 * (r - j), level - 2 * j) * comb(r, j)
                       for j in range(unknowns)] for r in nodes]
            assert _moment_matrix(level) == matrix
            assert solve_rational(matrix, [0] * unknowns) == [0] * unknowns

    def test_moment_matrix_degrees_distinct(self):
        # column polynomials of the per-level system have pairwise distinct
        # degrees level+1-i, which is what makes the system solvable
        y = Polynomial.x()
        for level in range(1, 9):
            degs = set()
            for i in range(level // 2 + 1):
                q = Polynomial.const(1)
                # C(2(r-i), level-2i) * C(r, i) as a polynomial in r
                for j in range(level - 2 * i):
                    q = q * (2 * (y - i) - j)
                for j in range(i):
                    q = q * (y - j)
                degs.add(q.degree)
            assert len(degs) == level // 2 + 1


class TestGF2:
    def test_empty_system(self):
        assert gf2_solution_count([], [], 5) == 32

    def test_zero_row_inconsistent(self):
        assert gf2_solution_count([0], [1], 3) == 0

    def test_k4_incidence(self):
        k4 = make_pattern("K", 4)
        rows = [0] * 4
        for i, (u, v) in enumerate(k4.edges):
            rows[u] |= 1 << i
            rows[v] |= 1 << i
        assert gf2_solution_count(rows, [1] * 4, 6) == 8

    def test_matches_enumeration(self):
        import itertools
        from eicount.graphs import Graph
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randrange(2, 7)
            g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                          if rng.random() < 0.5])
            rows = [0] * n
            for i, (u, v) in enumerate(g.edges):
                rows[u] |= 1 << i
                rows[v] |= 1 << i
            assert gf2_solution_count(rows, [1] * n, g.m) == \
                count_odd_edge_sets_enum(g)

    def test_matches_brute_force(self):
        # random systems with zero rows, duplicate rows and inconsistent
        # right-hand sides, against trying every assignment
        rng = random.Random(11)
        for _ in range(3000):
            ncols = rng.randrange(0, 9)
            rows, rhs = [], []
            for _ in range(rng.randrange(0, 10)):
                kind = rng.random()
                if kind < 0.15:
                    r = 0
                elif kind < 0.3 and rows:
                    r = rng.choice(rows)
                else:
                    r = rng.getrandbits(ncols)
                rows.append(r)
                rhs.append(rng.randrange(2))
            want = sum(all((r & x).bit_count() % 2 == b
                           for r, b in zip(rows, rhs))
                       for x in range(2 ** ncols))
            assert gf2_solution_count(rows, rhs, ncols) == want, (rows, rhs)


class TestMultinomial:
    def test_basic(self):
        assert multinomial(4, [2, 2]) == 6
        assert multinomial(4, [2]) == 6
        assert multinomial(3, [2, 2]) == 0


def test_only_exact_imports_fractions():
    # every other module counts in ints; a Fraction can only come out of
    # exact.py, where a value is truly non-integral
    importers = sorted(
        p.name for p in Path(eicount.__file__).parent.glob("*.py")
        if re.search(r"^\s*(from fractions import|import fractions)",
                     p.read_text(), re.M))
    assert importers == ["exact.py"]

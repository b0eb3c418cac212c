"""Exact arithmetic: dense univariate polynomials, Newton interpolation,
fraction-free linear solving, GF(2) solution counting, and the
moment-recovery routine behind the wedge-packing pipeline.

No floating point anywhere.  Values are Python ints first: a scalar or
polynomial coefficient is a :class:`fractions.Fraction` only where it is
truly non-integral, so the integer-valued pipelines never build one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm


def _exact(c):
    """``c`` as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """a / b, exact: an int when b divides a, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _exact(Fraction(a) / b)


def exact_quotient(num, den: int, message: str) -> int:
    """num // den for an int den, raising ArithmeticError(message) unless
    den divides num (a non-integral Fraction num always raises).

    The pipelines divide a count by the size of an orbit; a remainder
    means a wrong count upstream, which must not be truncated away."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(message)
    return q


class Polynomial:
    """Dense univariate polynomial; index = degree.  Integral coefficients
    are ints, the others Fractions."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "Polynomial":
        return Polynomial([c])

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = _exact(other)
            return Polynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(x)), exact."""
        acc = Polynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


def falling_factorial(x, t: int):
    """(x)_t = x (x-1) ... (x-t+1) for a scalar x; (x)_0 = 1."""
    if t < 0:
        raise ValueError("t must be >= 0")
    x = _exact(x)
    acc = 1
    for i in range(t):
        acc *= x - i
    return _exact(acc)


def interpolate(points) -> Polynomial:
    """Unique polynomial of degree < #points through the given points,
    via Newton divided differences (exact).

    A divided difference stays an int whenever it divides evenly, which it
    always does at integer nodes of an integer-coefficient polynomial; a
    Fraction appears only where a quotient is non-integral."""
    xs = [_exact(x) for x, _ in points]
    ys = [_exact(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate x value")
    # divided-difference coefficients
    dd = ys[:]
    for lvl in range(1, len(xs)):
        for i in range(len(xs) - 1, lvl - 1, -1):
            dd[i] = _div(dd[i] - dd[i - 1], xs[i] - xs[i - lvl])
    # Horner form: dd[0] + (x - xs[0]) (dd[1] + (x - xs[1]) (...))
    poly = Polynomial()
    for i in range(len(dd) - 1, -1, -1):
        poly = poly * Polynomial([-xs[i], 1]) + dd[i]
    return poly


def solve_rational(matrix, rhs):
    """Exact solution of a square nonsingular system.

    Each row of the augmented matrix is scaled by the lcm of its
    denominators, then fraction-free Bareiss elimination (first-nonzero
    pivoting) brings it to upper-triangular form over the ints: every
    division by the previous pivot is exact.  Back substitution returns an
    int for each integral unknown and a Fraction for the others."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system must be square")
    a = []
    for row, b in zip(matrix, rhs):
        row = [_exact(x) for x in row] + [_exact(b)]
        scale = lcm(*(x.denominator for x in row))
        a.append([x if scale == 1 else int(x * scale) for x in row])
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        top = a[col]
        p = top[col]
        for r in range(col + 1, n):
            row = a[r]
            f = row[col]
            row[col] = 0
            for j in range(col + 1, n + 1):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
    sol = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = row[n]
        for j in range(i + 1, n):
            acc -= row[j] * sol[j]
        sol[i] = _div(acc, row[i])
    return sol


@lru_cache(maxsize=None)
def _sigma_expand_cached(d: int):
    """Expand (y - t)_d in powers of y with polynomial-in-t coefficients:
    returns (sigma_0, ..., sigma_d) such that
    (y - t)_d = sum_i sigma_i(t) * y^{d-i}.

    sigma_i has degree i with leading coefficient (-1)^i * C(d, i).
    """
    # coefficients of y^j as polynomials in t, built by multiplying the
    # factors (y - (t + i)) for i = 0..d-1
    by_ypow = [Polynomial.const(1)]  # index = power of y
    t = Polynomial.x()
    for i in range(d):
        shifted = [Polynomial()] + by_ypow          # * y
        lowered = [c * (-(t + i)) for c in by_ypow]  # * -(t+i)
        by_ypow = [a + b for a, b in
                   zip(shifted, lowered + [Polynomial()] * (len(shifted) - len(lowered)))]
    return tuple(by_ypow[d - i] for i in range(d + 1))


# ---------------------------------------------------------------------------
# moment recovery

def required_inputs(k: int) -> int:
    """R(k): the largest polynomial index consulted when recovering the
    level-k unknowns.  The recovery runs level-by-level up to level 3k (the
    highest moment the final Vandermonde step needs) and at level L reads
    coefficients of the polynomials with indices ceil(L/2) .. L."""
    return 3 * k


def _moment_matrix(level: int):
    """The level-L moment system: row r (for r = ceil(L/2) .. L) holds
    C(2(r-j), L-2j) * C(r, j) for j = 0 .. floor(L/2).

    It depends only on L and is nonsingular for every L <= 60 (k <= 20),
    which the tests check, so the recovery needs no fallback nodes."""
    unknowns = level // 2 + 1
    return [[comb(2 * (r - j), level - 2 * j) * comb(r, j) for j in range(unknowns)]
            for r in range((level + 1) // 2, level + 1)]


def recover_unknowns(k: int, polys):
    """Recover ``[a_{0,k}, ..., a_{k,0}]`` from the polynomial family

        P_r(y) = sum_{j=0}^{r} sum_{t=0}^{j} a_{t,j-t} C(r,j) (y-t)_{2(r-j)}

    given the coefficient vectors of P_0 .. P_R with R >= required_inputs(k).

    Works level by level: the level-L moments I_{j,i} = sum_t a_{t,j-t} t^i
    with 2j + i = L are read off the y^{2r-L} coefficients of P_r for
    r = ceil(L/2) .. L after subtracting the contribution of lower-level
    moments (one solve against :func:`_moment_matrix`), then the level-k
    unknowns are extracted from I_{k,0..k} through a Vandermonde solve.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    polys = [p if isinstance(p, Polynomial) else Polynomial(p) for p in polys]
    if len(polys) < 3 * k + 1:
        raise ValueError(f"need at least P_0..P_{3 * k} for k={k}")
    moments = {(0, 0): polys[0].coeff(0)}  # P_0(y) is the constant a_{0,0}
    for level in range(1, 3 * k + 1):
        unknowns = level // 2 + 1  # I_{j, level-2j} for j = 0 .. floor(level/2)
        sign = -1 if level % 2 else 1
        rhs = []
        for r in range((level + 1) // 2, level + 1):
            known = 0
            for j in range(unknowns):
                i = level - 2 * j
                sig = _sigma_expand_cached(2 * (r - j))[i]
                # all but the leading t^i term of sigma_i hit lower levels
                for jj in range(i):
                    c = sig.coeff(jj)
                    if c:
                        known += comb(r, j) * c * moments[(j, jj)]
            rhs.append(sign * (polys[r].coeff(2 * r - level) - known))
        sol = solve_rational(_moment_matrix(level), rhs)
        for j, val in enumerate(sol):
            moments[(j, level - 2 * j)] = val
    vander = [[t ** i for t in range(k + 1)] for i in range(k + 1)]
    return solve_rational(vander, [moments[(k, i)] for i in range(k + 1)])


# ---------------------------------------------------------------------------
# GF(2)

def gf2_solution_count(rows, rhs, ncols: int) -> int:
    """Number of solutions of a linear system over GF(2).

    ``rows`` are bitmask-packed coefficient rows over ``ncols`` variables,
    ``rhs`` the right-hand-side bits.  Returns 0 when inconsistent and
    2^(ncols - rank) otherwise.

    Pivots are keyed by their leading column, so a row is reduced only by
    the pivot at its current top bit, until it vanishes or has a new leading
    column: each row costs the XORs it needs, not a test per earlier pivot.
    """
    rows = [int(r) for r in rows]
    rhs = [int(b) & 1 for b in rhs]
    if len(rows) != len(rhs):
        raise ValueError("rhs length mismatch")
    pivots = {}  # leading column -> (row, rhs bit)
    for r, b in zip(rows, rhs):
        while r:
            col = r.bit_length() - 1
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = (r, b)
                break
            r ^= pivot[0]
            b ^= pivot[1]
        else:
            if b:
                return 0
    return 2 ** (ncols - len(pivots))


def multinomial(n: int, parts) -> int:
    """n! / (p_1! ... p_l! (n - sum p_i)!); zero if the parts overfill n."""
    parts = list(parts)
    s = sum(parts)
    if s > n or any(p < 0 for p in parts):
        return 0
    out = 1
    rem = n
    for p in parts:
        out *= comb(rem, p)
        rem -= p
    return out


__all__ = [
    "Polynomial", "falling_factorial", "interpolate", "solve_rational",
    "recover_unknowns", "required_inputs", "gf2_solution_count",
    "multinomial", "exact_quotient",
]

"""Reference implementations that only the tests use.

Each is an independent, slow statement of an identity that a production
route computes another way; the tests check the route against it.
"""

from functools import lru_cache
from math import comb

from eicount.exact import Polynomial
from eicount.graphs import Graph, quotient
from eicount.oracles import count_emb


def all_partitions(items):
    """Yield all set partitions of ``items`` (restricted-growth order)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def count_edginj_via_partition_sum(h: Graph, g: Graph) -> int:
    """EdgInj(h, g) as the sum, over the loop-free, edge-injective vertex
    partitions rho of h, of Emb(h/rho, g): the cross-check for
    ``oracles.count_edginj`` and ``eihom.count_edginj_poly``."""
    total = 0
    for blocks in all_partitions(range(h.n)):
        q = quotient(h, blocks)
        if q is not None:
            total += count_emb(q, g)
    return total


def evaluate(p: Polynomial, x):
    """p(x) by Horner's rule, exact."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)  # plant_polynomials asks for each (x, t) many times
def poly_falling_factorial(x: Polynomial, t: int) -> Polynomial:
    """(x)_t = x (x-1) ... (x-t+1) for a Polynomial x; (x)_0 = 1."""
    acc = Polynomial.const(1)
    for i in range(t):
        acc = acc * (x - i)
    return acc


def plant_polynomials(a, max_r: int):
    """Forward evaluation of the sum that ``exact.recover_unknowns``
    inverts: given planted values ``a[(t, b)]`` (absent pairs count as
    zero), produce P_0 .. P_{max_r}, where

        P_r(y) = sum_{j=0}^{r} sum_{t=0}^{j} a_{t,j-t} C(r,j) (y-t)_{2(r-j)}.
    """
    out = []
    for r in range(max_r + 1):
        p = Polynomial()
        for j in range(r + 1):
            for t in range(j + 1):
                coef = a.get((t, j - t), 0)
                if coef:
                    shifted = poly_falling_factorial(Polynomial.x() - t,
                                                     2 * (r - j))
                    p = p + shifted * (coef * comb(r, j))
        out.append(p)
    return out

"""Exact counting layer on top of the word and tuple enumerations.

Everything here is computed twice in spirit: brute-force sums over
explicit objects on one side, coefficient extraction from truncated
exponential series on the other. All arithmetic is exact (integers and
fractions); whenever a final answer must be an integer polynomial that
is asserted, never obtained by rounding.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .bijections import enumerate_perm_tuples
from .core import MultisetSpec, _as_spec, _stat_polynomial, _tuple_stats, qs_polynomial
from .exactpoly import PolyTUV, SeriesT

__all__ = [
    "PolyTUV",
    "SeriesT",
    "eulerian",
    "eulerian_series",
    "qs_polynomial_from_series",
    "descent_series_coefficients",
    "max_descent_count",
    "perm_tuple_polynomial",
    "perm_tuple_polynomial_formula",
]


@lru_cache(maxsize=None)
def eulerian(n):
    """Sum of t^des u^asc over all permutations of 1..n, brute force:
    every permutation is quasi-Stirling, so this is the word polynomial
    of the multiset {1, ..., n}."""
    if n < 0:
        raise ValueError("n must be a natural number")
    return qs_polynomial(MultisetSpec((1,) * n))


def eulerian_series(order):
    """Truncated exponential series 1 + sum_n eulerian(n) z^n / n!."""
    coeffs = [eulerian(k) * Fraction(1, factorial(k)) for k in range(order + 1)]
    return SeriesT(coeffs, order)


def qs_polynomial_from_series(m):
    """The joint (des, asc, plat) polynomial of the quasi-Stirling words
    over m, obtained by coefficient extraction instead of enumeration:

        (n! / (K-n+1)) [z^n] (eulerian_series - 1 + v)^(K-n+1)

    which is the anchored tuple polynomial at K-n+1 slots. Must agree
    with qs_polynomial(m).
    """
    spec = _as_spec(m)
    n = spec.n
    if n == 0:
        raise ValueError("need at least one value")
    return perm_tuple_polynomial_formula(spec.K - n + 1, n, anchored=True)


def descent_series_coefficients(m, order):
    """Both sides of the descent series identity, as exact rationals.

    Left: the closed form  m^n C(K-n+m, m) / (K-n+1)  at each power m.
    Right: the t-coefficients of qs_polynomial at u=v=1 convolved with
    the binomial expansion of (1-t)^-(K+1).
    Returns (lhs, rhs), each a list indexed 0..order; they must agree.
    """
    spec = _as_spec(m)
    n = spec.n
    K = spec.K
    lhs = [
        Fraction(j**n * comb(K - n + j, j), K - n + 1) for j in range(order + 1)
    ]
    tcoeffs = qs_polynomial(spec).t_coefficients()
    rhs = []
    for j in range(order + 1):
        total = Fraction(0)
        for d, c in enumerate(tcoeffs):
            if d > j:
                break
            total += c * comb(j - d + K, K)
        rhs.append(total)
    return lhs, rhs


def max_descent_count(m):
    """Closed count (K-n+1)^(n-1) of words over m attaining the maximum
    descent number n; must match brute force."""
    spec = _as_spec(m)
    if spec.n == 0:
        raise ValueError("need at least one value")
    return (spec.K - spec.n + 1) ** (spec.n - 1)


def perm_tuple_polynomial(m, n, anchor=None):
    """Brute-force sum of v^(empty parts) t^(total des) u^(total asc)
    over the tuples from enumerate_perm_tuples(m, n, anchor)."""
    return _stat_polynomial(map(_tuple_stats, enumerate_perm_tuples(m, n, anchor)))


def perm_tuple_polynomial_formula(m, n, anchored=False):
    """Coefficient-extraction form of the tuple polynomial:

        n! [z^n] (eulerian_series - 1 + v)^m

    divided by m when anchored (the m slot choices for the value 1 are
    interchangeable); integrality of the result is asserted.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    base = eulerian_series(n) - 1 + PolyTUV.monomial(0, 0, 1)
    scale = Fraction(factorial(n), m) if anchored else factorial(n)
    result = (base ** m).coefficient(n) * scale
    if not result.is_integral():
        raise AssertionError(
            "tuple polynomial for m=%d, n=%d produced non-integers" % (m, n)
        )
    return result

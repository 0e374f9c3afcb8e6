"""Exact counting layer: Eulerian polynomials and the family polynomials
by integer coefficient extraction.

The joint (des, asc, plat) polynomial of the quasi-Stirling words over
{1^k1, ..., n^kn} is (n!/m) [z^n] (E - 1 + v)^m with m = K - n + 1, where
E = sum_k A_k z^k / k! packs the Eulerian polynomials A_k. No series is
expanded to get it: the rows A_k come from the Eulerian recurrence, and
n! [z^n] (E - 1)^i from a binomial convolution over the first part, all
in integers, so the cost is set by n and not by the number of words.
The division by m is asserted exact, never rounded. The brute-force sums
over explicit tuples here, and `core.qs_polynomial` over the words, stay
as the independent side of every identity check.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .bijections import enumerate_perm_tuples
from .core import _as_spec, _stat_polynomial, _tuple_stats, qs_polynomial
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


def _eulerian_rows(n):
    """Rows 0..n of A(k, d), the permutations of 1..k with d descents,
    both ends counted (so asc = k + 1 - d). Inserting k into a descent
    gap keeps d and into any other gap adds one:
    A(k, d) = d A(k-1, d) + (k-d+1) A(k-1, d-1)."""
    rows = [[1]]
    for k in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [d * prev[d] + (k - d + 1) * prev[d - 1] for d in range(1, k + 1)])
    return rows


@lru_cache(maxsize=None)
def eulerian(n):
    """Sum of t^des u^asc over all permutations of 1..n (the word
    polynomial of the multiset {1, ..., n}), read off row n of the
    Eulerian recurrence."""
    if n < 0:
        raise ValueError("n must be a natural number")
    if n == 0:
        return PolyTUV.one()  # the empty word
    row = _eulerian_rows(n)[n]
    return PolyTUV({(d, n + 1 - d, 0): row[d] for d in range(1, n + 1)})


def eulerian_series(order):
    """Truncated exponential series 1 + sum_n eulerian(n) z^n / n!."""
    coeffs = [eulerian(k) * Fraction(1, factorial(k)) for k in range(order + 1)]
    return SeriesT(coeffs, order)


def qs_polynomial_from_series(m):
    """The joint (des, asc, plat) polynomial of the quasi-Stirling words
    over m, obtained by coefficient extraction instead of enumeration:

        (n! / (K-n+1)) [z^n] (E - 1 + v)^(K-n+1)

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
    if order < 0:
        raise ValueError("order must be non-negative")
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


def _power_rows(n, top):
    """For i = 1..top, yield i and B_i(n) = n! [z^n] (E - 1)^i as its
    t-coefficients from t^i up (des runs over i..n; the u-exponent of t^d
    is n + i - d). Splitting on the size k of the first part,
    B_i(N) = sum_k C(N, k) A_k B_(i-1)(N-k), from B_0(N) = [N = 0]."""
    rows = _eulerian_rows(n)
    level = [[1]] + [[]] * n  # B_0(N) for N = 0..n
    for i in range(1, top + 1):
        nxt = [[]] * i
        for N in range(i, n + 1):
            acc = [0] * (N - i + 1)
            for k in range(1, N - i + 2):
                scale, rest = comb(N, k), level[N - k]
                for d in range(1, k + 1):
                    a = scale * rows[k][d]
                    for j, b in enumerate(rest, d - 1):
                        acc[j] += a * b
            nxt.append(acc)
        level = nxt
        yield i, level[n]


def perm_tuple_polynomial_formula(m, n, anchored=False):
    """Coefficient-extraction form of the tuple polynomial:

        n! [z^n] (E - 1 + v)^m = sum_i C(m, i) v^(m-i) n! [z^n] (E - 1)^i

    over i <= min(m, n), in integers (see _power_rows), divided by m
    when anchored (the m slot choices for the value 1 are
    interchangeable); that the division is exact is asserted.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    terms = {}
    for i, coeffs in _power_rows(n, min(m, n)):
        for j, b in enumerate(coeffs):
            terms[i + j, n - j, m - i] = comb(m, i) * b
    if anchored:
        if any(c % m for c in terms.values()):
            raise AssertionError(
                "tuple polynomial for m=%d, n=%d produced non-integers" % (m, n)
            )
        terms = {key: c // m for key, c in terms.items()}
    return PolyTUV(terms)

"""Exact counting layer: Eulerian polynomials and the family polynomials
by integer coefficient extraction.

The joint (des, asc, plat) polynomial of the quasi-Stirling words over
{1^k1, ..., n^kn} is (n!/m) [z^n] (E - 1 + v)^m with m = K - n + 1, where
E = sum_k A_k z^k / k! packs the Eulerian polynomials A_k. No series is
expanded to get it. With D = tu (d/dt + d/du + d/dv) the rows satisfy
dE/dz = D E + tu, so (E - 1 + v)^m is carried along z by D and

    n! [z^n] (E - 1 + v)^m = D^n (v^m) = m D^(n-1) (t u v^(m-1)).

On words, one step of D is gap insertion: the next value, larger than
all before it, goes into one of the gaps of a word over {1^m, 2, ..., k}.
A gap in a descent adds an ascent, a gap in an ascent adds a descent,
and a gap in a plateau trades the plateau for one of each. So the
family polynomial is D^(n-1)(t u v^(m-1)) itself, A_n is the same at
m = 1, and nothing is divided. It takes about n^3 integer operations,
whatever m and the number of words. The brute-force sums over explicit
tuples here, and `core.qs_polynomial` over the words, stay as the
independent side of every identity check; the words of each multiset
are counted once per process and the counts shared by the six checks
that read them (thm12, thm13, coro14, coro15, eq2, eq7).
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .bijections import enumerate_perm_tuples
from .core import _as_spec, _integers, _stat_polynomial, _tuple_stats, qs_polynomial
from .exactpoly import PolyTUV, SeriesT


def _gap_insertion(m, n):
    """D^(n-1)(t u v^(m-1)) as {(des, asc, plat): count}, the words over
    {1^m, 2, ..., n} grown from 1^m by inserting 2, ..., n into a gap."""
    terms = {(1, 1, m - 1): 1}
    for _ in range(n - 1):
        grown = {}
        for (a, b, e), c in terms.items():
            key = (a, b + 1, e)  # into one of the a descents
            grown[key] = grown.get(key, 0) + a * c
            key = (a + 1, b, e)  # into one of the b ascents
            grown[key] = grown.get(key, 0) + b * c
            if e:  # into one of the e plateaux
                key = (a + 1, b + 1, e - 1)
                grown[key] = grown.get(key, 0) + e * c
        terms = grown
    return terms


@lru_cache(maxsize=None)
def eulerian(n):
    """Sum of t^des u^asc over all permutations of 1..n (the word
    polynomial of the multiset {1, ..., n}), by gap insertion at m = 1."""
    # checked inside the cache: a refused n raises, so it is never stored
    (n,) = _integers((n,), "n must be an integer")
    if n < 0:
        raise ValueError("n must be a natural number")
    if n == 0:
        return PolyTUV.one()  # the empty word
    return PolyTUV(_gap_insertion(1, n))


def eulerian_series(order):
    """Truncated exponential series 1 + sum_n eulerian(n) z^n / n!."""
    (order,) = _integers((order,), "order must be an integer")
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
    (order,) = _integers((order,), "order must be an integer")
    if order < 0:
        raise ValueError("order must be non-negative")
    spec = _as_spec(m)
    n = spec.n
    K = spec.K
    lhs = [
        Fraction(j**n * comb(K - n + j, j), K - n + 1) for j in range(order + 1)
    ]
    tcoeffs = qs_polynomial(spec).t_coefficients()
    # the counts are ints: each entry is summed as one and made a Fraction once
    rhs = [
        Fraction(sum(c * comb(j - d + K, K) for d, c in enumerate(tcoeffs[: j + 1])))
        for j in range(order + 1)
    ]
    return lhs, rhs


def max_descent_count(m):
    """Closed count (K-n+1)^(n-1) of words over m attaining the maximum
    descent number n; must match brute force."""
    spec = _as_spec(m)
    if spec.n == 0:
        raise ValueError("need at least one value")
    return (spec.K - spec.n + 1) ** (spec.n - 1)


def perm_tuple_polynomial(m, n, anchored=False):
    """Brute-force sum of v^(empty parts) t^(total des) u^(total asc)
    over the tuples from enumerate_perm_tuples(m, n, anchored): with
    anchored=True, only those with the value 1 in the first part."""
    return _stat_polynomial(map(_tuple_stats, enumerate_perm_tuples(m, n, anchored)))


def perm_tuple_polynomial_formula(m, n, anchored=False):
    """Coefficient-extraction form of the tuple polynomial:

        n! [z^n] (E - 1 + v)^m = D^n (v^m) = m D^(n-1) (t u v^(m-1))

    by gap insertion (see the module docstring). Anchored, with the
    value 1 in the first of the m interchangeable slots, it is
    D^(n-1)(t u v^(m-1)) itself; otherwise m times that.
    """
    m, n = _integers((m, n), "m and n must be integers")
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    terms = _gap_insertion(m, n)
    if not anchored:
        terms = {key: m * c for key, c in terms.items()}
    return PolyTUV(terms)

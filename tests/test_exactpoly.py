"""Exact polynomial and truncated-series arithmetic."""

import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from qstirling import PolyTUV, SeriesT


def _qs22():
    # the joint-statistics polynomial of the (2,2) family, used as a
    # convenient three-term fixture: 2t^2u^2v + tu^2v^2 + t^2uv^2
    return (
        2 * PolyTUV.monomial(2, 2, 1)
        + PolyTUV.monomial(1, 2, 2)
        + PolyTUV.monomial(2, 1, 2)
    )


def test_zero_one_constant():
    assert not PolyTUV.zero()
    assert PolyTUV.zero() == 0
    assert PolyTUV.one() == 1
    assert PolyTUV.constant(7) == 7
    assert PolyTUV.constant(0) == PolyTUV.zero()


def test_ring_arithmetic():
    t = PolyTUV.monomial(1, 0, 0)
    u = PolyTUV.monomial(0, 1, 0)
    v = PolyTUV.monomial(0, 0, 1)
    assert (t + u) * (t - u) == t * t - u * u
    assert (t + 1) ** 3 == t ** 3 + 3 * t ** 2 + 3 * t + 1
    assert 2 * v == v + v
    assert v - v == 0
    assert t * 0 == 0
    assert (t + u + v) * 1 == t + u + v
    assert -(t - u) == u - t
    assert 1 - t == -(t - 1)


def test_zero_coefficients_never_stored():
    t = PolyTUV.monomial(1, 0, 0)
    assert (t - t).terms == {}
    assert len(((t + 1) * (t - 1)).terms) == 2
    assert (Fraction(1, 2) * t + Fraction(1, 2) * t).terms == {(1, 0, 0): 1}


def test_fraction_coefficients_normalize():
    t = PolyTUV.monomial(1, 0, 0)
    p = t * Fraction(2, 2)
    assert p.is_integral()
    assert isinstance(p.terms[(1, 0, 0)], int)
    assert not (t * Fraction(1, 2)).is_integral()


def test_constructor_keeps_exponents_and_coefficients_exact():
    # exponents are read through operator.index, never truncated
    for key in ((0.5, 0, 0), (1.9, 0, 0), (0, Fraction(1), 0), (0, 0, "1")):
        with pytest.raises(ValueError, match="exponents must be integers"):
            PolyTUV({key: 1})
    with pytest.raises(ValueError, match="exponents must be integers"):
        PolyTUV.monomial(1.9, 0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        PolyTUV({(0, -1, 0): 1})
    # coefficients are ints or Fractions only
    for c in (1.5, 1.0, "1", complex(1)):
        with pytest.raises(ValueError, match="ints or Fractions"):
            PolyTUV({(0, 0, 0): c})
        with pytest.raises(ValueError, match="ints or Fractions"):
            PolyTUV([((1, 0, 0), 1), ((1, 0, 0), c)])
    assert PolyTUV({(True, 0, 0): Fraction(4, 2)}).terms == {(1, 0, 0): 2}
    # arithmetic merges terms through the same constructor
    t = PolyTUV.monomial(1, 0, 0)
    assert (t + Fraction(1, 2)).terms == {(1, 0, 0): 1, (0, 0, 0): Fraction(1, 2)}
    assert (t * Fraction(2, 4) * 2).terms == {(1, 0, 0): 1}
    # a float operand is not a polynomial either
    with pytest.raises(TypeError):
        t + 1.5
    with pytest.raises(TypeError):
        t * 1.5


def test_value_at():
    p = _qs22()
    assert p.value_at(1, 1, 1) == 4
    assert p.value_at(1, 1, 0) == 0
    assert p.value_at(2, 1, 1) == 2 * 4 + 2 + 4


def test_power_edge_cases():
    t = PolyTUV.monomial(1, 0, 0)
    assert t ** 0 == 1
    assert PolyTUV.zero() ** 0 == 1
    with pytest.raises(ValueError):
        t ** -1


def test_sorted_terms_graded_lex_and_pretty():
    p = _qs22()
    assert [k for k, _ in p.sorted_terms()] == [(1, 2, 2), (2, 1, 2), (2, 2, 1)]
    assert p.pretty() == "t*u^2*v^2 + t^2*u*v^2 + 2*t^2*u^2*v"
    assert PolyTUV.zero().pretty() == "0"
    assert PolyTUV.constant(3).pretty() == "3"
    # grading puts total degree first
    q = PolyTUV.monomial(3, 0, 0) + PolyTUV.monomial(0, 0, 2)
    assert [k for k, _ in q.sorted_terms()] == [(0, 0, 2), (3, 0, 0)]


def test_json_round_trip():
    p = _qs22()
    obj = p.to_json_obj()
    assert obj == [
        {"t": 1, "u": 2, "v": 2, "c": "1"},
        {"t": 2, "u": 1, "v": 2, "c": "1"},
        {"t": 2, "u": 2, "v": 1, "c": "2"},
    ]


def test_t_coefficients():
    p = _qs22()
    assert p.t_coefficients() == [0, 1, 3]
    assert PolyTUV.zero().t_coefficients() == [0]
    assert PolyTUV.constant(5).t_coefficients() == [5]


def test_series_construction_and_coefficient():
    s = SeriesT([1, 2, 3])
    assert s.order == 2
    assert s.coefficient(2) == 3
    padded = SeriesT([1], order=3)
    assert padded.coeffs == [1, 0, 0, 0]
    truncated = SeriesT([1, 2, 3, 4], order=1)
    assert truncated.coeffs == [1, 2]
    with pytest.raises(IndexError):
        s.coefficient(3)
    with pytest.raises(ValueError):
        SeriesT([], order=-1)


def test_sizes_and_points_are_read_exactly():
    # an order, an index or an exponent is an integer, never a float
    # truncated or tripping a TypeError; a point is ints or Fractions
    s = SeriesT([1, 2])
    for call in (
        lambda: SeriesT([1], 2.0),
        lambda: s.coefficient(1.0),
        lambda: s ** 2.0,
        lambda: PolyTUV.one() ** 2.0,
        lambda: PolyTUV.one() ** "2",
        lambda: PolyTUV.one().value_at(1.5, 1, 1),
        lambda: _qs22().value_at(1, "1", 1),
    ):
        with pytest.raises(ValueError):
            call()
    with pytest.raises(IndexError):
        s.coefficient(-1)
    assert _qs22().value_at(Fraction(1, 2), 1, True) == Fraction(5, 4)


def test_series_ring_arithmetic():
    z = SeriesT([0, 1], order=5)
    geom = sum(z ** k for k in range(6))
    assert (1 - z) * geom == SeriesT.constant(1, 5)
    assert z ** 6 == SeriesT.constant(0, 5)  # truncation swallows high powers
    assert ((1 + z) ** 4).coeffs == [comb(4, k) for k in range(5)] + [0]
    with pytest.raises(ValueError):
        z + SeriesT([1], order=2)


def test_series_exponential_like_product():
    # exp-style coefficients stay exact rationals
    e = SeriesT([Fraction(1, factorial(k)) for k in range(7)])
    prod = e * e
    assert prod.coeffs == [Fraction(2 ** k, factorial(k)) for k in range(7)]


def test_series_with_polynomial_coefficients():
    t = PolyTUV.monomial(1, 0, 0)
    s = SeriesT([PolyTUV.one(), t], order=3)
    sq = s * s
    assert sq.coefficient(0) == 1
    assert sq.coefficient(1) == 2 * t
    assert sq.coefficient(2) == t * t
    assert sq.coefficient(3) == 0


def test_coefficients_past_the_digit_limit_print_in_full():
    # 2000! has 5,736 digits, more than str() writes by default: pretty
    # and to_json_obj write what they write with the limit lifted
    big = factorial(2000)
    p = PolyTUV({(0, 0, 0): big, (1, 0, 2): -big, (2, 0, 0): 3})
    r = p + PolyTUV({(0, 1, 0): Fraction(big, 7)})
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = p.pretty(), p.to_json_obj(), r.pretty()
    finally:
        sys.set_int_max_str_digits(limit)
    assert 3 * 5736 < len(want[2])
    assert (p.pretty(), p.to_json_obj(), r.pretty()) == want

"""Generating-function layer: Eulerian polynomials, coefficient
extraction, the descent series and the tuple polynomials."""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

import qstirling as q
import oracles
import sweeps
from qstirling import core, verify

P = q.PolyTUV.monomial


def test_eulerian_small():
    assert q.eulerian(0) == 1
    assert q.eulerian(1) == P(1, 1, 0)
    assert q.eulerian(2) == P(1, 2, 0) + P(2, 1, 0)
    assert q.eulerian(3) == P(1, 3, 0) + 4 * P(2, 2, 0) + P(3, 1, 0)
    for n in range(7):
        assert q.eulerian(n).value_at(1, 1, 1) == factorial(n)


def test_eulerian_is_brute_force_sum():
    for n in range(8):
        total = q.PolyTUV.zero()
        for perm in permutations(range(1, n + 1)):
            asc, des, plat = oracles.sentinel_stats(perm)
            total = total + P(des, asc, plat)
        assert total == q.eulerian(n)


def test_eulerian_rows_sum_and_symmetry():
    # des runs over 1..n with both ends counted, and reversing a
    # permutation swaps des and asc = n + 1 - des
    for n in range(1, 31):
        row = q.eulerian(n).t_coefficients()
        assert sum(row) == factorial(n)
        assert row[0] == 0 and len(row) == n + 1
        assert all(row[d] == row[n + 1 - d] for d in range(1, n + 1))


def test_eulerian_series_layout():
    s = q.eulerian_series(4)
    assert s.order == 4
    assert s.coefficient(0) == 1
    for k in range(1, 5):
        assert s.coefficient(k) == q.eulerian(k) * Fraction(1, factorial(k))


def test_qs_polynomial_from_series_examples():
    assert q.qs_polynomial_from_series(q.MultisetSpec((2, 2))) == (
        2 * P(2, 2, 1) + P(1, 2, 2) + P(2, 1, 2)
    )
    assert q.qs_polynomial_from_series(q.MultisetSpec((2, 1))) == (
        P(1, 2, 1) + P(2, 1, 1) + P(2, 2, 0)
    )
    assert q.qs_polynomial_from_series(q.MultisetSpec((1,))) == P(1, 1, 0)


@pytest.mark.parametrize("mult", [(10,) * 6, (2,) * 40, (3,) * 60])
def test_extraction_beyond_enumeration(mult):
    # (10,)*6 has 6.6e8 words, (2,)*40 about 2.1e69 and (3,)*60 about
    # 1e224: no enumeration reaches them, so check what the family must
    # satisfy
    spec = q.MultisetSpec(mult)
    n, K = spec.n, spec.K
    poly = q.qs_polynomial_from_series(spec)
    assert poly.is_integral()
    assert poly.value_at(1, 1, 1) == q.qs_count(spec)
    assert all(sum(key) == K + 1 for key in poly.terms)
    assert poly.t_coefficients()[n] == (K - n + 1) ** (n - 1)
    assert len(poly.t_coefficients()) == n + 1


def test_tuple_formula_counts_up_to_twelve():
    for m in range(1, 13):
        for n in range(1, 13):
            whole = comb(n + m - 1, m - 1) * factorial(n)
            assert q.perm_tuple_polynomial_formula(m, n).value_at(1, 1, 1) == whole
            anchored = q.perm_tuple_polynomial_formula(m, n, anchored=True)
            assert anchored.value_at(1, 1, 1) * m == whole


def test_tuple_formula_matches_series_oracle():
    # the gap insertion against plain Fraction series powers
    for m in range(1, 11):
        for n in range(1, 11):
            expected = oracles.series_tuple_polynomial(m, n)
            assert q.perm_tuple_polynomial_formula(m, n).terms == expected
            anchored = q.perm_tuple_polynomial_formula(m, n, anchored=True)
            assert (m * anchored).terms == expected


def test_tuple_formula_closed_counts_at_size_sixty():
    m, n = 50, 60
    whole = q.perm_tuple_polynomial_formula(m, n)
    anchored = q.perm_tuple_polynomial_formula(m, n, anchored=True)
    assert whole.is_integral() and anchored.is_integral()
    assert whole.value_at(1, 1, 1) == comb(n + m - 1, m - 1) * factorial(n)
    assert anchored.value_at(1, 1, 1) * m == whole.value_at(1, 1, 1)
    # the words with n descents: max_descent_count at K - n + 1 = m
    assert anchored.t_coefficients()[n] == m ** (n - 1)
    assert whole == m * anchored


def test_descent_series_examples():
    lhs, rhs = q.descent_series_coefficients(q.MultisetSpec((2, 2)), 4)
    assert lhs == rhs == [0, 1, 8, 30, 80]
    lhs, rhs = q.descent_series_coefficients(q.MultisetSpec((1,)), 3)
    assert lhs == rhs == [0, 1, 2, 3]


def test_descent_series_entries_are_fractions():
    # the right side is summed in ints, but each entry is still a Fraction
    for mult in sweeps.all_mults(5):
        lhs, rhs = q.descent_series_coefficients(q.MultisetSpec(mult), 6)
        assert all(type(c) is Fraction for c in lhs + rhs), mult


def test_descent_series_zero_constant_term():
    for mult in [(2, 2), (3, 1), (1, 1, 1)]:
        lhs, rhs = q.descent_series_coefficients(q.MultisetSpec(mult), 5)
        assert lhs[0] == rhs[0] == 0
        assert len(lhs) == len(rhs) == 6


def test_descent_series_rejects_negative_order():
    with pytest.raises(ValueError, match="order must be non-negative"):
        q.descent_series_coefficients(q.MultisetSpec((2, 2)), -1)
    # the engine would otherwise compare no coefficient and pass
    with pytest.raises(ValueError, match="order must be non-negative"):
        verify.run_check("eq2", verify.sweep_domain("eq2", 3), -1)
    with pytest.raises(ValueError, match="order must be non-negative"):
        verify.verify_suite(3, -1)


def test_descent_series_lhs_closed_form():
    # the closed form: j^n * C(K-n+j, j) / (K-n+1)
    spec = q.MultisetSpec((2, 2, 2))
    lhs, _ = q.descent_series_coefficients(spec, 5)
    n, K = spec.n, spec.K
    for j in range(6):
        assert lhs[j] == Fraction(j ** n * comb(K - n + j, j), K - n + 1)


def test_max_descent_count_values():
    assert q.max_descent_count(q.MultisetSpec((7,))) == 1
    assert q.max_descent_count(q.MultisetSpec((2, 2))) == 3
    assert q.max_descent_count(q.MultisetSpec((2, 2, 2))) == 16
    assert q.max_descent_count(q.MultisetSpec((3, 1, 1))) == 9


def test_perm_tuple_polynomial_examples():
    assert q.perm_tuple_polynomial(2, 2, anchored=True) == (
        P(1, 2, 1) + P(2, 1, 1) + P(2, 2, 0)
    )
    assert q.perm_tuple_polynomial(1, 1, anchored=True) == P(1, 1, 0)
    assert q.perm_tuple_polynomial(1, 1) == P(1, 1, 0)


def test_perm_tuple_anchor_symmetry():
    # anchoring the value 1 at any part gives the same polynomial
    for m in range(1, 5):
        for n in range(1, 6 - m):
            tuples = list(q.enumerate_perm_tuples(m, n))
            polys = [
                core._stat_polynomial(
                    core._tuple_stats(a) for a in tuples if 1 in a[i]
                )
                for i in range(m)
            ]
            assert polys[0] == q.perm_tuple_polynomial(m, n, anchored=True)
            assert all(p == polys[0] for p in polys)
            # the unrestricted family is the disjoint union over anchors
            # of where value 1 lives, so the sum of any anchored one times m
            # equals the whole only when they are all equal; check directly
            whole = q.perm_tuple_polynomial(m, n)
            assert whole == m * polys[0]


def test_tuple_polynomial_counts():
    for m in range(1, 5):
        for n in range(1, 5):
            whole = q.perm_tuple_polynomial(m, n)
            assert whole.value_at(1, 1, 1) == factorial(n) * comb(n + m - 1, n)
            anchored = q.perm_tuple_polynomial(m, n, anchored=True)
            assert anchored.value_at(1, 1, 1) == factorial(n) * comb(n + m - 1, n) // m


@pytest.mark.parametrize(
    "fn, args",
    [
        (q.perm_tuple_polynomial_formula, (2.0, 3)),
        (q.perm_tuple_polynomial_formula, ("2", 3)),
        (q.perm_tuple_polynomial_formula, (2, 3.0, True)),
        (q.eulerian_series, (2.0,)),
        (q.perm_tuple_polynomial, (2.0, 3)),
        (q.descent_series_coefficients, (q.MultisetSpec((2, 2)), 2.0)),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_integer_arguments_refuse_floats_and_strings(fn, args):
    with pytest.raises(ValueError, match="must be (an )?integers?"):
        fn(*args)


def test_eulerian_cache_never_holds_a_float():
    assert q.eulerian(3) == q.eulerian(3)
    before = q.eulerian.cache_info().currsize
    # 3.0 equals 3 but is checked and refused, and leaves no entry
    with pytest.raises(ValueError, match="n must be an integer"):
        q.eulerian(3.0)
    assert q.eulerian.cache_info().currsize == before

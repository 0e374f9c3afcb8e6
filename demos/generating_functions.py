"""
Exact generating functions
==========================

Everything in this layer is exact: integer polynomial coefficients,
rational series coefficients, and an extraction that divides nothing.
No floats anywhere.
"""

from qstirling import (
    MultisetSpec,
    descent_series_coefficients,
    eulerian,
    eulerian_series,
    max_descent_count,
    perm_tuple_polynomial,
    perm_tuple_polynomial_formula,
    qs_polynomial,
    qs_polynomial_from_series,
)

# Bivariate Eulerian polynomials, by gap insertion: each of 2..n goes
# into a gap of a permutation of the smaller values, one step of
# D = tu(d/dt + d/du) from A_1 = tu.
for n in range(1, 5):
    print("A_%d =" % n, eulerian(n).pretty())

# Packed into an exponential series they become the building block for
# every family polynomial.
series = eulerian_series(4)
print("\nseries coefficient of z^3:", series.coefficient(3).pretty())

# Coefficient extraction instead of enumeration: the same polynomial
# twice, once by walking the words, once from the series.
spec = MultisetSpec((2, 2))
print("\nbrute force:", qs_polynomial(spec).pretty())
print("extraction: ", qs_polynomial_from_series(spec).pretty())

# A classical-style identity: a closed form for one coefficient
# sequence against a convolution of the polynomial with binomials.
lhs, rhs = descent_series_coefficients(spec, 6)
print("\ndescent series of", spec.to_text())
print("  closed form: ", [str(c) for c in lhs])
print("  convolution: ", [str(c) for c in rhs])

# Counting only the words with the maximum number of descents needs no
# enumeration at all.
for mult in [(2, 2), (2, 2, 2), (3, 1, 1)]:
    s = MultisetSpec(mult)
    print("max-descent words over %s: %d" % (s.to_text(), max_descent_count(s)))

# Tuple polynomials: distributions over tuples of disjoint little
# permutations, again with a matching extraction formula.
m, n = 2, 3
print("\ntuple polynomial m=%d n=%d:" % (m, n))
print("  brute force:", perm_tuple_polynomial(m, n).pretty())
print("  formula:    ", perm_tuple_polynomial_formula(m, n).pretty())
print("  anchored:   ", perm_tuple_polynomial(m, n, anchored=True).pretty())
print("  flat family:", qs_polynomial(MultisetSpec((m, 1, 1))).pretty())

"""Acceptance checks, one test per criterion.

Each test prints a single `[PASS]`/`[FAIL]` line (visible with
`pytest tests/test_acceptance.py -v -s`) and then asserts. The sweep
criteria run the full advertised ranges, so this module carries most of
the suite's runtime. Criteria 03-06 and 08-12 drive the package's
verification engine over domains built here from `sweeps.all_mults`,
criterion 07 over the engine's own injection sweep, and each asserts
that it ran exactly the closed-form number of cases; the
mutation check corrupts the re-attachment rule to prove the engine's
sweeps can actually fail.
"""

import time

import qstirling as q
from qstirling import bijections, verify

import sweeps


def _report(num, desc, failures):
    ok = not failures
    print("[%s] criterion %02d: %s" % ("PASS" if ok else "FAIL", num, desc))
    assert ok, "criterion %02d (%s): %d failure(s), first: %s" % (
        num,
        desc,
        len(failures),
        failures[0],
    )


FIGURE_WORD = (2, 7, 4, 7, 5, 6, 3, 3, 5, 1, 5)


def _specs(max_K):
    return [q.MultisetSpec(mult) for mult in sweeps.all_mults(max_K)]


def _engine_failures(result, expected_cases):
    cases, failures = result
    if cases != expected_cases:
        failures = failures + ["ran %d cases, expected %d" % (cases, expected_cases)]
    return failures


# Closed-form domain sizes. Every multiset with K <= 8 contributes its
# family size K!/(K-n+1)!; the shift sweep at K <= 7 counts each family
# once per value j >= 2 of multiplicity at least 2; there are 2^K - 1
# multisets with size up to K, 63 of them with K <= 7 and n <= 3 (the
# sum over K of 1 + (K-1) + C(K-1, 2)), and 21 pairs with m + n <= 7,
# whose anchored tuple families have (m+n-1)!/m! members. The injection
# families J_{n,r} with r <= n <= 7 have n!/r! members each.
FAMILIES_UP_TO_8 = 436628
SHIFTS_UP_TO_7 = 40189
MULTISETS_UP_TO_7 = 127
MULTISETS_UP_TO_8 = 255
THREE_VALUES_UP_TO_7 = 63
TUPLE_PAIRS = [(m, n) for m in range(1, 7) for n in range(1, 8 - m)]
ANCHORED_TUPLES = 1498
INJECTIONS_UP_TO_7 = 10158


# --- the criteria -----------------------------------------------------------


def test_criterion_01_smallest_family():
    start = time.perf_counter()
    words = list(q.enumerate_qs(q.MultisetSpec((2, 2))))
    elapsed = time.perf_counter() - start
    failures = []
    if words != [(1, 1, 2, 2), (1, 2, 2, 1), (2, 1, 1, 2), (2, 2, 1, 1)]:
        failures.append("family listed as %s" % (words,))
    if elapsed >= 1.0:
        failures.append("took %.3f s" % elapsed)
    _report(1, "the four words over multiplicities 2,2 in under a second", failures)


def test_criterion_02_worked_tree_example():
    failures = []
    t = q.phi_inv(FIGURE_WORD)
    spec = q.MultisetSpec((1, 1, 2, 1, 3, 1, 2))
    violation = q.tree_violation(t, spec)
    if violation is not None:
        failures.append(violation)
    ts = q.tree_stats(t)
    if (ts.cdes, ts.casc, ts.eleaf) != (5, 6, 1):
        failures.append("statistics %s" % (ts,))
    if q.phi(t) != FIGURE_WORD:
        failures.append("round trip broke")
    _report(
        2,
        "the eleven-letter worked example recovers its tree with "
        "(cdes, casc, eleaf) = (5, 6, 1)",
        failures,
    )


def test_criterion_03_tree_word_bijection():
    start = time.perf_counter()
    failures = _engine_failures(verify.thm22(_specs(8)), FAMILIES_UP_TO_8)
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append("took %.1f s" % elapsed)
    _report(
        3,
        "tree families map onto word families carrying all five "
        "statistics, every multiset up to size 8, within five minutes",
        failures,
    )


def test_criterion_04_multiplicity_shift():
    failures = _engine_failures(verify.thm23(_specs(7)), SHIFTS_UP_TO_7)
    _report(
        4,
        "every admissible single-value shift is invertible and keeps "
        "(asc, des, plat) of the words, every multiset up to size 7",
        failures,
    )


def test_criterion_05_flattening():
    failures = _engine_failures(verify.thm11(_specs(8)), FAMILIES_UP_TO_8)
    if q.big_phi((2, 2, 1)) != (2, 1, 1):
        failures.append("hand example maps to %s" % (q.big_phi((2, 2, 1)),))
    _report(
        5,
        "flattening maps each family onto the single-repeated-value "
        "family preserving (asc, des, plat), every multiset up to size 8",
        failures,
    )


def test_criterion_06_composition_invariance():
    specs = [spec for spec in _specs(7) if spec.n <= 3]
    failures = _engine_failures(verify.thm12(specs), THREE_VALUES_UP_TO_7)
    _report(
        6,
        "equal-(n, K) multisets share the whole joint distribution, "
        "n up to 3, size up to 7",
        failures,
    )


def test_criterion_07_worked_injection_example():
    failures = _engine_failures(
        verify.eq4(verify.sweep_domain("eq4", 7)), INJECTIONS_UP_TO_7
    )
    w = (4, 6, 9, 9, 5, 2, 8, 9, 1, 7, 3)
    s = q.chi(w)
    rendered = q.render_path_cycle(q.to_path_cycle(s))
    if rendered != "<4,6,9><10><5,2,8,11>(1,7,3)":
        failures.append("rendered as %s" % rendered)
    if q.exc(s) != 5:
        failures.append("excedance count %d" % q.exc(s))
    if q.stats(w).asc != 6:
        failures.append("ascent count %d" % q.stats(w).asc)
    if q.chi_inv(s) != w:
        failures.append("inverse broke")
    _report(
        7,
        "the eleven-letter injection example renders in standard form "
        "with exc 5 and asc 6, and every injection with n up to 7 comes "
        "back from its normal form, whose ascents number its excedances",
        failures,
    )


def test_criterion_08_descent_excedance_histograms():
    failures = _engine_failures(verify.thm13(_specs(8)), MULTISETS_UP_TO_8)
    _report(
        8,
        "descent counts match excedance counts of the injection "
        "families, every multiset up to size 8",
        failures,
    )


def test_criterion_09_max_descent_counts():
    failures = _engine_failures(verify.coro14(_specs(8)), MULTISETS_UP_TO_8)
    for mult, value in (((2, 2), 3), ((2, 2, 2), 16), ((3, 1, 1), 9)):
        if q.max_descent_count(q.MultisetSpec(mult)) != value:
            failures.append("spot value at %s" % (mult,))
    _report(
        9,
        "the closed count of maximal-descent words matches brute force, "
        "every multiset up to size 8, plus three spot values",
        failures,
    )


def test_criterion_10_coefficient_extraction():
    failures = _engine_failures(verify.coro15(_specs(8)), MULTISETS_UP_TO_8)
    P = q.PolyTUV.monomial
    spot = q.qs_polynomial_from_series(q.MultisetSpec((2, 2)))
    if spot != 2 * P(2, 2, 1) + P(1, 2, 2) + P(2, 1, 2):
        failures.append("spot value at (2,2): %s" % spot.pretty())
    _report(
        10,
        "series coefficient extraction reproduces every brute-force "
        "polynomial, every multiset up to size 8",
        failures,
    )


def test_criterion_11_descent_series():
    failures = _engine_failures(verify.eq2(_specs(7), 8), MULTISETS_UP_TO_7)
    lhs, rhs = q.descent_series_coefficients(q.MultisetSpec((2, 2)), 4)
    if not (lhs == rhs == [0, 1, 8, 30, 80]):
        failures.append("spot sequence came out as %s" % (lhs,))
    _report(
        11,
        "both descent series agree to order 8, every multiset up to "
        "size 7, with the spot sequence 0, 1, 8, 30, 80",
        failures,
    )


def test_criterion_12_tuple_polynomials():
    failures = (
        _engine_failures(verify.eq7(TUPLE_PAIRS), len(TUPLE_PAIRS))
        + _engine_failures(verify.eq5(TUPLE_PAIRS), len(TUPLE_PAIRS))
        + _engine_failures(verify.zeta(TUPLE_PAIRS), ANCHORED_TUPLES)
    )
    _report(
        12,
        "tuple polynomials match their coefficient formulas and the "
        "fold bijection carries the three additive statistics, m+n up to 7",
        failures,
    )


def test_criterion_13_mutation_sensitivity(monkeypatch):
    healthy, _ = verify.verify_suite(5)
    assert healthy, "the suite must pass before the mutation"
    monkeypatch.setattr(
        bijections,
        "_case1_attach_order",
        lambda moved, relabeled: [relabeled] + list(moved),
    )
    _, report = verify.verify_suite(5)
    counts = {
        entry["name"]: (entry["cases"], entry.get("failure_count", 0))
        for entry in report["checks"]
    }
    failures = [
        "%s gave (cases, failures) %s, expected %s" % (name, counts[name], expected)
        for name, expected in (("thm23", (350, 30)), ("thm11", (591, 46)))
        if counts[name] != expected
    ]
    _report(
        13,
        "reversing the re-attachment order breaks the shift and "
        "flattening sweeps at size 5",
        failures,
    )

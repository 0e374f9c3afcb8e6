"""Exhaustive checks of the identities, shared by the CLI and the tests.

Each check takes its domain as plain values and returns
(cases, failures): how many cases it examined and one message per
failed case. Multiset checks take a list of MultisetSpec; eq5, eq7 and
zeta take (m, n) pairs; eq4 takes (n, r) pairs; eq2 also takes the
series order. `sweep_domain` gives the domain every check sweeps under
a size bound, and `verify_suite` runs all of them over it.

thm22, thm23 and thm11 run the bijection kernels directly on the trees
and words they enumerate, which are valid by construction, rather than
the public maps, which would validate each input again. Each image is
tested against its target family before an inverse kernel runs on it
(thm22 and thm11 look words up in the enumerated family, thm23 validates
trees), so a kernel that strays outside the family fails the identity.
"""

from collections import Counter
from itertools import combinations
from operator import sub

from . import bijections, core, excedance, genfun, trees

DEFAULT_ORDER = 8


def compositions(total, parts):
    """The ordered sequences of `parts` positive integers summing to
    `total` >= 1, in lex order: each is read off its parts - 1 cut
    points in 1..total-1, taken in lex order."""
    for inner in combinations(range(1, total), parts - 1):
        bounds = (0, *inner, total)
        yield tuple(map(sub, bounds[1:], bounds))


def sweep_domain(name, max_K):
    """The domain the named check sweeps at size bound max_K: every
    multiset with K <= max_K, the (m, n) pairs with m + n - 1 <= max_K,
    or for eq4 the (n, r) pairs with r <= n <= max_K."""
    (max_K,) = core._integers((max_K,), "max_K must be an integer")
    if name in ("eq5", "eq7", "zeta"):
        return [
            (m, n)
            for m in range(1, max_K + 1)
            for n in range(1, max_K + 1)
            if m + n - 1 <= max_K
        ]
    if name == "eq4":
        return [(n, r) for n in range(1, max_K + 1) for r in range(1, n + 1)]
    return [
        core.MultisetSpec(mult)
        for K in range(1, max_K + 1)
        for parts in range(1, K + 1)
        for mult in compositions(K, parts)
    ]


def thm22(specs):
    """phi: bijection onto the word family, carrying all five statistics."""
    cases = 0
    failures = []
    for spec in specs:
        family = list(core.enumerate_qs(spec))
        members = set(family)
        words = []
        for t in trees._trees(spec):
            cases += 1
            w = bijections._phi(t)
            if w not in members:
                failures.append(
                    "phi image outside the family at tree %s" % trees.render_tree(t)
                )
                continue
            ws = core.stats(w)
            if trees.tree_stats(t) != (ws.des, ws.asc, ws.plat, w[0], w[-1]):
                failures.append(
                    "statistics mismatch at tree %s" % trees.render_tree(t)
                )
            if bijections._phi_inv(w, spec.mult) != t:
                failures.append("round trip failed at tree %s" % trees.render_tree(t))
            words.append(w)
        # the family is listed in lex order without repeats
        if sorted(words) != family:
            failures.append(
                "phi image over %s is not the whole word family" % spec.to_text()
            )
    return cases, failures


def _psi_tag(t, j):
    # rendered only for a failure message
    return "%s j=%d" % (trees.render_tree(t), j)


def thm23(specs):
    """psi: invertible, statistic-preserving, onto the shifted family."""
    phi, phi_inv = bijections._phi, bijections._phi_inv
    transport = bijections._transport
    cases = 0
    failures = []
    for spec in specs:
        source = list(trees._trees(spec))
        for j in range(2, spec.n + 1):
            if spec.mult[j - 1] < 2:
                continue
            shifted = list(spec.mult)
            shifted[j - 2] += 1
            shifted[j - 1] -= 1
            target = core.MultisetSpec(tuple(shifted))
            family = set(trees._trees(target))
            images = set()
            for t in source:
                cases += 1
                t2 = phi_inv(transport(phi(t), spec.mult, ((j, 1),), ()), target.mult)
                if t2 not in family:
                    failures.append("psi image invalid at %s" % _psi_tag(t, j))
                    continue
                # (cdes, casc, eleaf); the end labels may move
                if trees.tree_stats(t)[:3] != trees.tree_stats(t2)[:3]:
                    failures.append("psi statistics changed at %s" % _psi_tag(t, j))
                back = phi_inv(transport(phi(t2), target.mult, (), ((j, 1),)), spec.mult)
                if back != t:
                    failures.append("psi round trip failed at %s" % _psi_tag(t, j))
                images.add(t2)
            if images != family:
                failures.append(
                    "psi is not onto over %s at j=%d" % (spec.to_text(), j)
                )
    return cases, failures


def thm11(specs):
    """big_phi: bijection onto the flattened family, triple preserved."""
    cases = 0
    failures = []
    families = {}  # (n, K) -> the flattened family, enumerated once
    tag = core.word_to_text  # called only for a failure message
    for spec in specs:
        flat = bijections.flattened_spec(spec)
        family = families.get((spec.n, spec.K))
        if family is None:
            family = families[spec.n, spec.K] = set(core.enumerate_qs(flat))
        schedule = bijections._shift_schedule(spec.mult)
        images = set()
        for w in core.enumerate_qs(spec):
            cases += 1
            w2 = bijections._transport(w, spec.mult, schedule, ())
            if w2 not in family:
                failures.append("flattened image outside the family at %s" % tag(w))
                continue
            if core.stats(w) != core.stats(w2):
                failures.append("statistic triple changed at %s" % tag(w))
            if bijections._transport(w2, flat.mult, (), schedule) != w:
                failures.append("big_phi round trip failed at %s" % tag(w))
            images.add(w2)
        if images != family:
            failures.append(
                "flattened image over %s is not the whole family" % spec.to_text()
            )
    return cases, failures


def thm12(specs):
    """Equal-(n, K) multisets share the joint statistic polynomial."""
    failures = []
    classes = {}
    for spec in specs:
        classes.setdefault((spec.n, spec.K), []).append(spec)
    for _, (first, *rest) in sorted(classes.items()):
        ref = core.qs_polynomial(first)
        for spec in rest:
            if core.qs_polynomial(spec) != ref:
                failures.append(
                    "distribution over %s differs from %s"
                    % (spec.to_text(), first.to_text())
                )
    return len(specs), failures


def thm13(specs):
    """Words with des = d+1 match injections with exc = d."""
    failures = []
    for spec in specs:
        des_hist = Counter(core.stats(w).des for w in core.enumerate_qs(spec))
        exc_hist = Counter(
            excedance.exc(s)
            for s in excedance.enumerate_J(spec.K, spec.K - spec.n + 1)
        )
        if des_hist != Counter({d + 1: c for d, c in exc_hist.items()}):
            failures.append("histograms differ over %s" % spec.to_text())
    return len(specs), failures


def max_descent_check(spec):
    """Coro 14 over one multiset: (closed-form, brute-force, failures)
    for the count of words over `spec` with the maximum descent number n."""
    expected = genfun.max_descent_count(spec)
    got = sum(1 for w in core.enumerate_qs(spec) if core.stats(w).des == spec.n)
    failures = []
    if got != expected:
        failures.append(
            "count over %s: expected %d, got %d" % (spec.to_text(), expected, got)
        )
    return expected, got, failures


def coro14(specs):
    """Closed count of maximally descending words vs brute force."""
    failures = []
    for spec in specs:
        failures += max_descent_check(spec)[2]
    return len(specs), failures


def coro15(specs):
    """Series coefficient extraction equals the brute-force polynomial."""
    failures = [
        "polynomials differ over %s" % spec.to_text()
        for spec in specs
        if genfun.qs_polynomial_from_series(spec) != core.qs_polynomial(spec)
    ]
    return len(specs), failures


def eq2(specs, order):
    """Closed-form and convolved descent series coefficients agree."""
    failures = []
    for spec in specs:
        lhs, rhs = genfun.descent_series_coefficients(spec, order)
        if lhs != rhs:
            failures.append("series sides differ over %s" % spec.to_text())
    return len(specs), failures


def eq5(pairs):
    """Unanchored tuple polynomial: brute force vs extraction."""
    failures = [
        "tuple polynomial differs at m=%d, n=%d" % (m, n)
        for m, n in pairs
        if genfun.perm_tuple_polynomial(m, n)
        != genfun.perm_tuple_polynomial_formula(m, n)
    ]
    return len(pairs), failures


def eq7(pairs):
    """Anchored tuple polynomial: brute force, extraction, and the word
    polynomial of the flattened multiset all agree."""
    failures = []
    for m, n in pairs:
        brute = genfun.perm_tuple_polynomial(m, n, anchor=1)
        formula = genfun.perm_tuple_polynomial_formula(m, n, anchored=True)
        words = core.qs_polynomial(core.MultisetSpec((m,) + (1,) * (n - 1)))
        if brute != formula or brute != words:
            failures.append("anchored polynomial differs at m=%d, n=%d" % (m, n))
    return len(pairs), failures


def zeta(pairs):
    """zeta: bijection with the three additive statistic identities."""
    cases = 0
    failures = []
    for m, n in pairs:
        spec = core.MultisetSpec((m,) + (1,) * (n - 1))
        seen = set()
        for a in bijections.enumerate_perm_tuples(m, n, anchor=1):
            cases += 1
            tag = bijections.perm_tuple_to_text(a)
            w = bijections.zeta(a)
            if bijections.zeta_inv(w) != a:
                failures.append("zeta round trip failed at %s" % tag)
            if core.stats(w) != core._tuple_stats(a):
                failures.append("zeta statistics differ at %s" % tag)
            seen.add(w)
        if seen != set(core.enumerate_qs(spec)):
            failures.append("zeta image misses words at m=%d, n=%d" % (m, n))
    return cases, failures


def eq4(pairs):
    """Normal form round trip plus the excedance-from-ascents identity,
    over every injection family J_{n,r}."""
    cases = 0
    failures = []
    for n, r in pairs:
        for s in excedance.enumerate_J(n, r):
            cases += 1
            rep = excedance.to_path_cycle(s)
            ascents = sum(
                a < b for seq in rep.paths + rep.cycles for a, b in zip(seq, seq[1:])
            )
            if ascents != excedance.exc(s):
                failures.append("ascent identity fails at %s" % s.to_text())
            if excedance.from_path_cycle(rep) != s:
                failures.append("normal form round trip fails at %s" % s.to_text())
    return cases, failures


CHECKS = {
    "thm22": thm22,
    "thm23": thm23,
    "thm11": thm11,
    "thm12": thm12,
    "thm13": thm13,
    "coro14": coro14,
    "coro15": coro15,
    "eq2": eq2,
    "eq5": eq5,
    "eq7": eq7,
}

SUITE_EXTRAS = {
    "zeta": zeta,
    "eq4": eq4,
}


def run_check(name, domain, order):
    """Run the named check over `domain`; only eq2 reads `order`.

    A check that ran no case is not a pass, so that raises ValueError,
    as does a name that is no check.
    """
    fn = CHECKS.get(name) or SUITE_EXTRAS.get(name)
    if fn is None:
        raise ValueError(
            "unknown check %r; choose one of %s"
            % (name, ", ".join(sorted([*CHECKS, *SUITE_EXTRAS])))
        )
    cases, failures = fn(domain, order) if name == "eq2" else fn(domain)
    if cases == 0:
        raise ValueError("check %s has no case to run" % name)
    return cases, failures


def verdict(cases, failures):
    """(pass, details): the case count, plus the failure count and the
    first five failures in sorted order when there are any."""
    details = {"cases": cases}
    if failures:
        details["failure_count"] = len(failures)
        details["failures"] = sorted(failures)[:5]
    return not failures, details


def verify_suite(max_K, order=DEFAULT_ORDER):
    """Run every identity family over all multisets with K <= max_K,
    eq2 to the series order `order`.

    A family with no case to run raises ValueError in `run_check`; a
    crash propagates, as it is not a failed identity.
    """
    (max_K,) = core._integers((max_K,), "max_K must be an integer")
    if max_K < 1:
        raise ValueError("max_K must be at least 1")
    checks = []
    for name in list(CHECKS) + list(SUITE_EXTRAS):
        cases, failures = run_check(name, sweep_domain(name, max_K), order)
        ok, details = verdict(cases, failures)
        checks.append({"name": name, "pass": ok, **details})
    all_ok = all(entry["pass"] for entry in checks)
    return all_ok, {"max_K": max_K, "pass": all_ok, "checks": checks}

"""Exhaustive checks of the identities, shared by the CLI and the tests.

Each check takes its domain as plain values and returns
(cases, failures): how many cases it examined and one message per
failed case. Multiset checks take a list of MultisetSpec; eq5, eq7 and
zeta take (m, n) pairs; eq4 takes (n, r) pairs; eq2 also takes the
series order. `sweep_domain` gives the domain every check sweeps under
a size bound, and `verify_suite` runs all of them over it.

The bijection checks thm22 (phi), thm23 (psi), thm11 (big_phi) and zeta
share one loop, `_check_bijection`, which takes all the families of a
check, one case each: each image must lie in the target family, tested
before any other kernel runs on it, keep the statistics and map back to
its source, and the images must cover the family.
thm22, thm23 and thm11 run on the trees and words they enumerate,
valid by construction, the kernel calls that the public maps make
after their input check. thm22 reads `trees._trees`, as
`enumerate_trees` does, and compares `core.qs_count` with each word
family's size. thm23 runs psi's one `_transport` step (j, j-1, 1) and
back psi_inv's (j-1, j, 1), thm11 big_phi's runs
`_shift_schedule(spec, flat)` and back big_phi_inv's
`_shift_schedule(flat, spec)`. psi on trees is phi_inv after that step
after phi, so thm22 covers the rest. thm12, thm13, coro14, coro15, eq2, eq4, eq5
and eq7 share `_check_agree`: the sides of each case must be equal.
thm12 compares each multiset with the first of its (n, K) class, and
eq4 runs it once per identity over the injections.

The brute-force side of thm12, thm13, coro14, coro15, eq2 and eq7 is
`core._family_counts`: the words of each multiset, counted by
`core.stats` once per process and shared by the six checks, directly or
through `core.qs_polynomial`.
"""

from collections import Counter
from functools import partial
from itertools import chain, combinations, starmap
from operator import sub

from . import bijections, core, excedance, genfun, trees

DEFAULT_ORDER = 8


def compositions(total, parts):
    """The ordered sequences of `parts` positive integers summing to
    `total`, in lex order, read off their parts - 1 cut points in
    1..total-1. Arguments that are no integers or below 1, or a total
    past sys.maxsize, are a ValueError at the call."""
    total, parts = core._integers((total, parts), "total and parts must be integers")
    if min(total, parts) < 1:
        raise ValueError("total and parts must be at least 1")
    cuts = combinations(range(1, core._indexable(total)), parts - 1)
    return (tuple(map(sub, (*inner, total), (0, *inner))) for inner in cuts)


def sweep_domain(name, max_K):
    """The domain the named check sweeps at size bound max_K: every
    multiset with K <= max_K, the (m, n) pairs with m + n - 1 <= max_K,
    or for eq4 the (n, r) pairs with r <= n <= max_K."""
    _check_named(name, {**CHECKS, **SUITE_EXTRAS})
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


def _check_bijection(name, cases):
    """(cases, failures) summed over the families of a check, each a case
    (sources, forward, inverse, family, same_stats, tag, over): per source
    x, in this order, y = forward(x) is in the set `family`,
    same_stats(x, y) holds and inverse(y) == x; then the images cover
    `family`. tag(x) and `over` name x and the family in a failure. A case
    runs to the end before the next is drawn, so its functions may read
    the loop variables of the generator that made it."""
    count = 0
    failures = []
    for sources, forward, inverse, family, same_stats, tag, over in cases:
        images = set()
        for x in sources:
            count += 1
            y = forward(x)
            if y not in family:
                failures.append("%s image outside the family at %s" % (name, tag(x)))
                continue
            if not same_stats(x, y):
                failures.append("%s statistics changed at %s" % (name, tag(x)))
            if inverse(y) != x:
                failures.append("%s round trip failed at %s" % (name, tag(x)))
            images.add(y)
        if images != family:
            failures.append("%s image over %s is not the whole family" % (name, over))
    return count, failures


def _check_agree(items, sides, message):
    """(cases, failures) for the claim that, per item x, the values in
    sides(x) are all equal; message(x, values) names x where they differ."""
    cases = 0
    failures = []
    for x in items:
        cases += 1
        values = sides(x)
        if any(v != values[0] for v in values):
            failures.append(message(x, values))
    return cases, failures


def _phi_stats_agree(t, w):
    ws = core.stats(w)
    return trees.tree_stats(t) == (ws.des, ws.asc, ws.plat, w[0], w[-1])


def thm22(specs):
    """phi: bijection onto the word family, carrying all five statistics;
    and `qs_count` gives the size of each family."""
    miscounts = []

    def family(spec):
        words = set(core.enumerate_qs(spec))
        if core.qs_count(spec) != len(words):
            miscounts.append("qs_count over %s is not %d" % (spec.to_text(), len(words)))
        return words

    cases, failures = _check_bijection("phi", ((
        trees._trees(spec),
        bijections._phi,
        partial(bijections._phi_inv, mult=spec.mult),
        family(spec),
        _phi_stats_agree,
        lambda t: "tree " + trees.render_tree(t),
        spec.to_text(),
    ) for spec in specs))
    return cases, failures + miscounts


def _shift_cases(specs, shifts):
    """The cases of psi runs between word families: shifts(spec) yields
    (runs, target, back, suffix, over), and `_transport` with `runs` must
    carry the words over spec onto those over target, keeping (asc, des,
    plat), and with `back` carry them home; a failure names the word
    plus `suffix`, and the family `over`."""
    transport = bijections._transport
    families = {}  # target multiplicities -> its family, enumerated once
    for spec in specs:
        for runs, target, back, suffix, over in shifts(spec):
            if target.mult not in families:
                families[target.mult] = set(core.enumerate_qs(target))
            yield (
                core.enumerate_qs(spec),
                lambda w: transport(w, spec.mult, runs),
                lambda w: transport(w, target.mult, back),
                families[target.mult],
                lambda w, w2: core.stats(w) == core.stats(w2),
                lambda w: core.word_to_text(w) + suffix,
                over,
            )


def _single_shifts(spec):
    # the step of psi at j, and back the step of psi_inv
    for j in range(2, spec.n + 1):
        if spec.mult[j - 1] > 1:
            target = core.MultisetSpec(bijections._stepped(spec.mult, j, j - 1))
            over = "%s at j=%d" % (spec.to_text(), j)
            yield [(j, j - 1, 1)], target, [(j - 1, j, 1)], " j=%d" % j, over


def thm23(specs):
    """psi: each step j -> j-1 on the words is invertible, statistic-
    preserving and onto the shifted family. psi on trees is phi_inv after
    this step after phi, and thm22 checks phi and phi_inv."""
    return _check_bijection("psi", _shift_cases(specs, _single_shifts))


def _flattening(spec):
    # the runs of big_phi, and back those of big_phi_inv
    flat = bijections.flattened_spec(spec)
    runs = bijections._shift_schedule(spec.mult, flat.mult)
    yield runs, flat, bijections._shift_schedule(flat.mult, spec.mult), "", spec.to_text()


def thm11(specs):
    """big_phi: bijection onto the flattened family, triple preserved."""
    return _check_bijection("big_phi", _shift_cases(specs, _flattening))


def thm12(specs):
    """Equal-(n, K) multisets share the joint statistic polynomial."""
    first = {}  # (n, K) -> the first multiset of that class

    def sides(spec):
        ref = first.setdefault((spec.n, spec.K), spec)
        return dict(core._family_counts(spec.mult)), dict(core._family_counts(ref.mult))

    return _check_agree(
        specs,
        sides,
        lambda spec, _: "distribution over %s differs from %s"
        % (spec.to_text(), first[spec.n, spec.K].to_text()),
    )


def thm13(specs):
    """Words with des = d+1 match injections with exc = d."""
    injections = {}  # (K, r) -> the exc histogram of J_{K,r}, counted once

    def sides(spec):
        words = Counter()
        for (des, _, _), count in core._family_counts(spec.mult):
            words[des - 1] += count
        K, r = spec.K, spec.K - spec.n + 1
        if (K, r) not in injections:
            injections[K, r] = Counter(map(excedance.exc, excedance.enumerate_J(K, r)))
        return words, injections[K, r]

    return _check_agree(
        specs, sides, lambda spec, _: "histograms differ over %s" % spec.to_text()
    )


def coro14_counts(spec):
    """The closed-form and the brute-force count of the words over
    `spec` with the maximum descent number n."""
    expected = genfun.max_descent_count(spec)
    counts = core._family_counts(spec.mult)
    return expected, sum(count for (des, _, _), count in counts if des == spec.n)


def _coro14_failure(spec, counts):
    return "count over %s: expected %d, got %d" % (spec.to_text(), *counts)


def coro14(specs):
    """Closed count of maximally descending words vs brute force."""
    return _check_agree(specs, coro14_counts, _coro14_failure)


def coro15(specs):
    """Series coefficient extraction equals the brute-force polynomial."""
    return _check_agree(
        specs,
        lambda spec: (genfun.qs_polynomial_from_series(spec), core.qs_polynomial(spec)),
        lambda spec, _: "polynomials differ over %s" % spec.to_text(),
    )


def eq2(specs, order):
    """Closed-form and convolved descent series coefficients agree."""
    return _check_agree(
        specs,
        lambda spec: genfun.descent_series_coefficients(spec, order),
        lambda spec, _: "series sides differ over %s" % spec.to_text(),
    )


def eq5(pairs):
    """Unanchored tuple polynomial: brute force vs extraction."""
    return _check_agree(
        pairs,
        lambda mn: (
            genfun.perm_tuple_polynomial(*mn),
            genfun.perm_tuple_polynomial_formula(*mn),
        ),
        lambda mn, _: "tuple polynomial differs at m=%d, n=%d" % tuple(mn),
    )


def eq7(pairs):
    """Anchored tuple polynomial: brute force, extraction, and the word
    polynomial of the flattened multiset all agree."""
    return _check_agree(
        pairs,
        lambda mn: (
            genfun.perm_tuple_polynomial(*mn, anchored=True),
            genfun.perm_tuple_polynomial_formula(*mn, anchored=True),
            core.qs_polynomial(core.MultisetSpec((mn[0],) + (1,) * (mn[1] - 1))),
        ),
        lambda mn, _: "anchored polynomial differs at m=%d, n=%d" % tuple(mn),
    )


def zeta(pairs):
    """zeta: bijection with the three additive statistic identities."""
    return _check_bijection("zeta", ((
        bijections.enumerate_perm_tuples(m, n, anchored=True),
        bijections.zeta,
        bijections.zeta_inv,
        set(core.enumerate_qs(core.MultisetSpec((m,) + (1,) * (n - 1)))),
        lambda a, w: core._tuple_stats(a) == core.stats(w),
        bijections.perm_tuple_to_text,
        "m=%d, n=%d" % (m, n),
    ) for m, n in pairs))


def _normal_form_ascents(s):
    rep = excedance.to_path_cycle(s)
    return sum(a < b for seq in rep.paths + rep.cycles for a, b in zip(seq, seq[1:]))


def _round_trip(s):
    try:
        return excedance.from_path_cycle(excedance.to_path_cycle(s))
    except ValueError:  # a normal form it refuses is no round trip
        return None


def eq4(pairs):
    """Normal form round trip plus the excedance-from-ascents identity,
    over every injection family J_{n,r}."""
    pairs = list(pairs)  # each identity streams the injections anew
    cases, failures = _check_agree(
        chain.from_iterable(starmap(excedance.enumerate_J, pairs)),
        lambda s: (_normal_form_ascents(s), excedance.exc(s)),
        lambda s, _: "ascent identity fails at %s" % s.to_text(),
    )
    _, more = _check_agree(
        chain.from_iterable(starmap(excedance.enumerate_J, pairs)),
        lambda s: (_round_trip(s), s),
        lambda s, _: "normal form round trip fails at %s" % s.to_text(),
    )
    return cases, failures + more


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


def _check_named(name, checks):
    """checks[name]; a name that is no key of `checks` is a ValueError."""
    if isinstance(name, str) and name in checks:
        return checks[name]
    raise ValueError("unknown check %r; choose one of %s" % (name, ", ".join(sorted(checks))))


def run_check(name, domain, order):
    """Run the named check over `domain`; only eq2 reads `order`.

    A check that ran no case is not a pass, so that raises ValueError,
    as does a name that is no check.
    """
    fn = _check_named(name, {**CHECKS, **SUITE_EXTRAS})
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

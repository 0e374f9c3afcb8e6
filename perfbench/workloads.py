"""The three workloads: their operation lists and output checks.

An operation is one `qstirling.cli.run` call or one call of a public
library function. Each carries a check that decides, from the output
alone and with the reference code in `inputs`, whether the answer is
right. Checks return None when the output is right, else a reason.

sweep     exhaustive `verify` over every multiset with K <= 5: many tiny
          objects, so per-call overhead across every module dominates.
maps      `map` round trips of single seeded words at K = 25..100: the
          bijection kernels dominate, and enumeration is never touched.
counting  `poly`, `enumerate` and `count` on a 55440-word family plus the
          series functions at n = 8: enumeration, statistics, Eulerian
          polynomials and series powers; trees are never touched.
"""

import json
import re
from math import comb

from inputs import (
    compositions,
    flattened,
    make_rng,
    multiplicities,
    naive_is_quasi_stirling,
    naive_stats,
    psi_steps,
    qs_count,
    random_composition,
    random_qs_word,
)

NAMES = ("sweep", "maps", "counting")

SWEEP_MAX_K = 5
SWEEP_CHECKS = ("thm22", "thm23", "thm11", "thm12", "thm13", "coro14", "coro15", "eq2")
PAIR_CHECKS = ("eq5", "eq7")

# maps: size classes, and the word profiles built in each class
# (K, rounds of the profiles); the 160 ops on K = 25 words put the pass
# median among many like ops, so it moves little from seed to seed
MAPS_CLASSES = ((25, 4), (50, 1), (100, 1))
MAPS_PROFILES = ("high", "rand", "rand", "low")
DEEP_PROBE_SIZES = (1200, 2000)  # past the interpreter's default recursion limit

COUNTING_N, COUNTING_K = 6, 11  # 11!/6! = 55440 words
SERIES_N, SERIES_K = 8, 24
TUPLE_M = 12
# (n, K) of the `count` ops, each size three times with its own multiset;
# with thirty small CLI calls among 35 ops the pass median falls in the
# middle of them, not next to whichever big op sits mid-list
COUNT_SPECS = tuple((n, 5 * n) for n in range(3, 13)) * 3


def checked(mult, word=None):
    """Set-up check of a generated input: a valid multiplicity vector and,
    when a word is given, a quasi-Stirling word over exactly that multiset."""
    if not mult or min(mult) < 1:
        raise ValueError("bad multiplicities %r" % (mult,))
    if word is not None:
        if multiplicities(word) != tuple(mult):
            raise ValueError("generated word is not over %r" % (mult,))
        if not naive_is_quasi_stirling(word):
            raise ValueError("generated word over %r is not quasi-Stirling" % (mult,))
    return mult


def text(word):
    return ",".join(map(str, word))


def parse_word(s):
    s = s.strip()
    return tuple(int(x) for x in s.split(",")) if s else ()


class Op:
    """One operation. `make(outs)` builds the call, ("cli", argv) or
    ("lib", module, function, args), from the outputs of the ops named in
    `needs`; `check(result, outs)` judges its result. A cli result is
    (exit code, spool) and a library result is the returned value."""

    __slots__ = ("key", "make", "check", "needs")

    def __init__(self, key, make, check, needs=()):
        self.key = key
        self.make = make
        self.check = check
        self.needs = needs


def cli(key, argv, check, needs=()):
    """Op for a cli.run call; argv may be a function of the outputs."""
    make = (lambda outs: ("cli", argv(outs))) if callable(argv) else (lambda outs: ("cli", argv))
    return Op(key, make, check, needs)


def lib(key, module, function, args, check):
    return Op(key, lambda outs: ("lib", module, function, args), check)


def output_text(result):
    """The printed text of a successful cli op, else (None, reason)."""
    rc, spool = result
    if rc != 0:
        return None, "exit code %d" % rc
    return spool.text(), None


def json_output(result):
    out, err = output_text(result)
    if err:
        return None, err
    try:
        return json.loads(out), None
    except ValueError:
        return None, "output is not JSON"


def equals(expected):
    """The output is exactly `expected` (a string, or a function of the
    outputs giving one)."""

    def check(result, outs):
        out, err = output_text(result)
        if err:
            return err
        want = expected(outs) if callable(expected) else expected
        return None if out.strip() == want else "output differs from %.40r" % want

    return check


# ---------------------------------------------------------------------------
# sweep


def expected_cases(check, mult):
    """Closed-form case count of `verify --check <check> --mult <mult>`."""
    if check in ("thm22", "thm11"):
        return qs_count(mult)
    if check == "thm23":
        return qs_count(mult) * sum(1 for k in mult[1:] if k >= 2)
    if check == "thm12":
        return comb(sum(mult) - 1, len(mult) - 1)  # compositions of K into n parts
    return 1


def verify_check(cases):
    def check(result, outs):
        obj, err = json_output(result)
        if err:
            return err
        if obj.get("pass") is not True:
            return "verdict is not PASS"
        if obj.get("cases") != cases:
            return "cases=%r, expected %d" % (obj.get("cases"), cases)
        return None

    return check


def sweep_ops(seed):
    ops = []
    for K in range(1, SWEEP_MAX_K + 1):
        for mult in map(checked, compositions(K)):
            for c in SWEEP_CHECKS:
                cases = expected_cases(c, mult)
                if cases:  # thm23 with no shiftable value has nothing to run
                    argv = ["verify", "--check", c, "--mult", text(mult)]
                    ops.append(cli("%s/%s" % (c, text(mult)), argv, verify_check(cases)))
    for m in range(1, SWEEP_MAX_K + 1):
        for n in range(1, SWEEP_MAX_K + 2 - m):
            for c in PAIR_CHECKS:
                argv = ["verify", "--check", c, "--mult", "%d,%d" % (m, n)]
                ops.append(cli("%s/%d,%d" % (c, m, n), argv, verify_check(1)))
    make_rng(seed, "sweep").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# maps


def profile_mult(rng, profile, K, n):
    """Multiplicities with the K - n extra copies on the value n ("high",
    the most psi steps), on the value 1 ("low", none), or spread at random
    ("rand") with the psi-step count held within 5% of half the high
    profile's, so that seeds change the words but not the work."""
    high = (1,) * (n - 1) + (K - n + 1,)
    if profile == "high":
        return high
    if profile == "low":
        return flattened(high)
    target = psi_steps(high) / 2
    while True:
        mult = random_composition(rng, K, n)
        if abs(psi_steps(mult) - target) <= 0.05 * target:
            return mult


def maps_inputs(seed):
    """[(mult, word)] for the seeded words of the maps workload."""
    rng = make_rng(seed, "maps")
    out = []
    for K, rounds in MAPS_CLASSES:
        for _ in range(rounds):
            for profile in MAPS_PROFILES:
                mult = profile_mult(rng, profile, K, K // 5)
                word = random_qs_word(rng, mult)
                out.append((checked(mult, word), word))
    return out


def deep_probes():
    """Words deeper than the default recursion limit: the plain
    permutation 1..N for phi-inv, and 1..N with the value 2 doubled for
    Phi (on a word with no repeated value Phi returns its input as is)."""
    out = []
    for N in DEEP_PROBE_SIZES:
        out.append(("phi-inv", tuple(range(1, N + 1))))
        out.append(("Phi", (1, 2) + tuple(range(2, N + 1))))
    for _, word in out:
        checked(multiplicities(word), word)
    return out


def image_check(word, target):
    """A quasi-Stirling word over `target` with the statistics of `word`."""

    def check(result, outs):
        out, err = output_text(result)
        if err:
            return err
        try:
            image = parse_word(out)
        except ValueError:
            return "output is not a word"
        if multiplicities(image) != tuple(target):
            return "image is not over %s" % text(target)
        if not naive_is_quasi_stirling(image):
            return "image is not quasi-Stirling"
        if naive_stats(image) != naive_stats(word):
            return "statistics changed"
        return None

    return check


def tree_labels_check(word):
    def check(result, outs):
        out, err = output_text(result)
        if err:
            return err
        labels = sorted(int(x) for x in re.findall(r"\d+", out))
        return None if labels == sorted((0,) + word) else "tree labels differ from the word"

    return check


def injection_from_text(s):
    """(elements, {i: f(i)}) from the path-cycle text '<a,b>...(x,y)...'."""
    elements = []
    f = {}
    for kind, body in re.findall(r"([<(])([\d,]+)[>)]", s):
        seq = [int(x) for x in body.split(",")]
        elements += seq
        f.update(zip(seq, seq[1:]))
        if kind == "(":
            f[seq[-1]] = seq[0]
    return elements, f


def delta_check(flat_key):
    """delta of a word over {1^m, 2..n}: an injection on 1..K, each
    element once, whose excedances are the word's descents minus one."""

    def check(result, outs):
        out, err = output_text(result)
        if err:
            return err
        flat = parse_word(outs[flat_key])
        elements, f = injection_from_text(out)
        if sorted(elements) != list(range(1, len(flat) + 1)):
            return "injection does not cover 1..%d once" % len(flat)
        exc = sum(1 for i, v in f.items() if v > i)
        return None if exc == naive_stats(flat)[1] - 1 else "excedances do not match descents"

    return check


def zeta_inv_check(flat_key):
    """m parts with the value 1 in the first, covering 1..n; plateaux
    count the empty parts, ascents and descents add up over the rest."""

    def check(result, outs):
        out, err = output_text(result)
        if err:
            return err
        flat = parse_word(outs[flat_key])
        parts = [parse_word(p) for p in out.strip().split("|")]
        n = len(flat) - flat.count(1) + 1
        if len(parts) != flat.count(1) or 1 not in parts[0]:
            return "wrong number of parts or 1 misplaced"
        if sorted(v for p in parts for v in p) != list(range(1, n + 1)):
            return "parts do not cover 1..%d" % n
        asc = sum(naive_stats(p)[0] for p in parts if p)
        des = sum(naive_stats(p)[1] for p in parts if p)
        empty = sum(1 for p in parts if not p)
        return None if (asc, des, empty) == naive_stats(flat) else "statistics differ"

    return check


def map_call(which, operand, flag="--perm", mult=None):
    argv = ["map", "--which", which]
    if mult is not None:
        argv += ["--mult", text(mult)]
    return argv + [flag, operand]


def fed(key, which, source, check, flag="--perm", mult=None, needs=()):
    """A map op whose operand is the output of the op named `source`."""
    return cli(key, lambda outs: map_call(which, outs[source], flag, mult), check, (source,) + needs)


def output_of(key):
    return lambda outs: outs[key]


def maps_ops(seed):
    ops = []
    for i, (mult, word) in enumerate(maps_inputs(seed)):
        w = text(word)
        back = tuple(reversed(mult))
        k = "w%d/" % i
        flat = k + "Phi"
        ops += [
            cli(flat, map_call("Phi", w), image_check(word, flattened(mult))),
            fed(k + "Phi-inv", "Phi-inv", flat, equals(w), mult=mult),
            cli(k + "transport", map_call("transport:" + text(back), w), image_check(word, back)),
            fed(k + "transport-back", "transport:" + text(mult), k + "transport", equals(w)),
            cli(k + "phi-inv", map_call("phi-inv", w), tree_labels_check(word)),
            fed(k + "phi", "phi", k + "phi-inv", equals(w), flag="--tree"),
            fed(k + "delta", "delta", flat, delta_check(flat)),
            fed(k + "delta-inv", "delta-inv", k + "delta", equals(output_of(flat)), needs=(flat,)),
            fed(k + "zeta-inv", "zeta-inv", flat, zeta_inv_check(flat)),
            fed(k + "zeta", "zeta", k + "zeta-inv", equals(output_of(flat)), needs=(flat,)),
        ]
    for which, word in deep_probes():
        if which == "phi-inv":
            check = equals("0(%s)" % text(word))
        else:
            check = image_check(word, flattened(multiplicities(word)))
        ops.append(cli("deep/%s/%d" % (which, max(word)), map_call(which, text(word)), check))
    return ops


# ---------------------------------------------------------------------------
# counting


def poly_terms(obj):
    """{(t, u, v): c} from the CLI's JSON term list."""
    return {(d["t"], d["u"], d["v"]): int(d["c"]) for d in obj}


def poly_reason(terms, mult):
    """Closed-form properties of the (des, asc, plat) polynomial over
    mult: K!/(K-n+1)! words, des + asc + plat = K + 1 on every word, and
    (K-n+1)^(n-1) words with the maximum n descents."""
    n, K = len(mult), sum(mult)
    if any(not isinstance(c, int) or c <= 0 for c in terms.values()):
        return "coefficients are not positive integers"
    if sum(terms.values()) != qs_count(mult):
        return "coefficients sum to %d, expected %d" % (sum(terms.values()), qs_count(mult))
    if any(sum(key) != K + 1 for key in terms):
        return "a term has exponent sum other than K+1"
    top = sum(c for (t, u, v), c in terms.items() if t == n)
    if top != (K - n + 1) ** (n - 1):
        return "max-descent coefficient %d, expected %d" % (top, (K - n + 1) ** (n - 1))
    return None


def poly_check(mult):
    def check(result, outs):
        obj, err = json_output(result)
        return err or poly_reason(poly_terms(obj), mult)

    return check


def series_check(mult, same_as=None):
    """A library polynomial: the closed-form properties, and equal to the
    output of the `poly` op `same_as` when that op succeeded."""

    def check(result, outs):
        terms = dict(result.terms)
        if same_as in outs and terms != poly_terms(json.loads(outs[same_as])):
            return "differs from the poly output"
        return poly_reason(terms, mult)

    return check


def enumerate_check(mult):
    """K!/(K-n+1)! lines of K values each, strictly increasing."""

    def check(result, outs):
        rc, spool = result
        if rc != 0:
            return "exit code %d" % rc
        lines = 0
        prev = ()
        for line in spool.lines():
            word = parse_word(line)
            if len(word) != sum(mult) or word <= prev:
                return "line %d is out of order or malformed" % (lines + 1)
            prev = word
            lines += 1
        return None if lines == qs_count(mult) else "%d lines, expected %d" % (lines, qs_count(mult))

    return check


def count_check(mult):
    def check(result, outs):
        obj, err = json_output(result)
        if err:
            return err
        want = {"mult": text(mult), "n": len(mult), "K": sum(mult), "count": qs_count(mult)}
        return None if obj == want else "count output differs"

    return check


def counting_ops(seed):
    rng = make_rng(seed, "counting")
    poly_mult = checked(random_composition(rng, COUNTING_K, COUNTING_N))
    enum_mult = checked(random_composition(rng, COUNTING_K, COUNTING_N))
    series_mult = checked(random_composition(rng, SERIES_K, SERIES_N))
    tuple_mult = (TUPLE_M,) + (1,) * (SERIES_N - 1)
    ops = [
        cli("poly", ["poly", "--mult", text(poly_mult)], poly_check(poly_mult)),
        cli("enumerate", ["enumerate", "--mult", text(enum_mult)], enumerate_check(enum_mult)),
    ]
    for n, K in COUNT_SPECS:
        mult = checked(random_composition(rng, K, n))
        ops.append(cli("count/%s" % text(mult), ["count", "--mult", text(mult)], count_check(mult)))
    ops += [
        lib("series/poly", "genfun", "qs_polynomial_from_series", (poly_mult,), series_check(poly_mult, "poly")),
        lib("series/n8", "genfun", "qs_polynomial_from_series", (series_mult,), series_check(series_mult)),
        lib("tuples/n8", "genfun", "perm_tuple_polynomial_formula", (TUPLE_M, SERIES_N, True),
            series_check(tuple_mult)),
    ]
    return ops


def build(name, seed):
    return {"sweep": sweep_ops, "maps": maps_ops, "counting": counting_ops}[name](seed)

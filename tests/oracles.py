"""Slow reference implementations, deliberately written straight from the
definitions and kept independent of the package internals. Tests compare
the fast library code against these."""

import random
from fractions import Fraction
from math import factorial


def quartic_quasi_stirling(word):
    """Literal four-index scan: reject i<j<k<l with w_i=w_k, w_j=w_l and
    w_i != w_j (two distinct values crossing)."""
    L = len(word)
    for i in range(L):
        for j in range(i + 1, L):
            if word[i] == word[j]:
                continue
            for k in range(j + 1, L):
                if word[k] != word[i]:
                    continue
                for l in range(k + 1, L):
                    if word[l] == word[j]:
                        return False
    return True


def cubic_stirling(word):
    """Literal scan of the nesting condition: for i<j<k with w_i=w_k,
    require w_j > w_i."""
    L = len(word)
    for i in range(L):
        for k in range(i + 2, L):
            if word[i] == word[k]:
                for j in range(i + 1, k):
                    if word[j] <= word[i]:
                        return False
    return True


def sentinel_stats(word):
    """(asc, des, plat) computed on the explicitly padded sequence."""
    if not word:
        return 0, 0, 0
    seq = (0,) + tuple(word) + (0,)
    asc = sum(1 for a, b in zip(seq, seq[1:]) if a < b)
    des = sum(1 for a, b in zip(seq, seq[1:]) if a > b)
    plat = sum(1 for a, b in zip(seq, seq[1:]) if a == b)
    return asc, des, plat


def multiset_permutations(mult):
    """All arrangements of the multiset {1^mult[0], 2^mult[1], ...} in
    lexicographic order."""
    counts = list(mult)
    total = sum(counts)
    word = []

    def rec():
        if len(word) == total:
            yield tuple(word)
            return
        for v in range(1, len(counts) + 1):
            if counts[v - 1]:
                counts[v - 1] -= 1
                word.append(v)
                yield from rec()
                word.pop()
                counts[v - 1] += 1

    yield from rec()


def positional_excedances(values):
    """Number of positions i (1-based) with sigma_i > i."""
    return sum(1 for i, v in enumerate(values, start=1) if v > i)


def random_quasi_stirling(mult, seed):
    """A quasi-Stirling word over {1^mult[0], 2^mult[1], ...}, drawn with
    random.Random(seed). The values are dropped in one at a time, in a
    random order, each as a single run of all its copies at a random gap
    of the word so far. A run of equal values sits inside or outside the
    span of every other value, so it crosses nothing; and every
    quasi-Stirling word has a value whose copies are adjacent, so all
    of them can come out. A loop, not a recursion, so any size works."""
    rng = random.Random(seed)
    values = list(range(1, len(mult) + 1))
    rng.shuffle(values)
    word = []
    for v in values:
        gap = rng.randint(0, len(word))
        word[gap:gap] = [v] * mult[v - 1]
    return tuple(word)


def largest_repeat_schedule(mult):
    """The flattening schedule straight from its definition: while some
    value j >= 2 has multiplicity at least 2, step at the largest such
    j, moving one copy from j to j-1. Returns the list of those j."""
    m = list(mult)
    steps = []
    while True:
        repeated = [j for j in range(2, len(m) + 1) if m[j - 1] >= 2]
        if not repeated:
            return steps
        j = max(repeated)
        steps.append(j)
        m[j - 2] += 1
        m[j - 1] -= 1


def cyclic_tree_stats(t, depth=0):
    """(cdes, casc, eleaf) by recursion over the tree: a vertex with
    children adds the cyclic descents and ascents of (own label, child
    labels left to right), a leaf at even depth adds one to eleaf."""
    label, children = t
    if not children:
        return (0, 0, 1 - depth % 2)
    seq = [label] + [child[0] for child in children]
    pairs = list(zip(seq, seq[1:] + seq[:1]))
    totals = [sum(a > b for a, b in pairs), sum(a < b for a, b in pairs), 0]
    for child in children:
        for i, x in enumerate(cyclic_tree_stats(child, depth + 1)):
            totals[i] += x
    return tuple(totals)


def series_tuple_polynomial(m, n):
    """n! [z^n] (E - 1 + v)^m as {(des, asc, plat): count}, where
    E = sum_k A_k z^k / k! and A_k sums t^des u^asc over the permutations
    of 1..k with both sentinels counted. The rows come from the textbook
    recurrence A(k, d) = (d+1) A(k-1, d) + (k-d) A(k-1, d-1) on descents
    without sentinels, and the power is m plain products of Fraction
    series truncated after z^n."""
    rows = [[1]]
    for k in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([(d + 1) * prev[d] + (k - d) * (prev[d - 1] if d else 0) for d in range(k)])
    # E - 1 + v: the constant term of E cancels, leaving v
    base = [{(0, 0, 1): Fraction(1)}]
    for k in range(1, n + 1):
        # d descents inside, so d + 1 with the sentinels and k - d ascents
        base.append({(d + 1, k - d, 0): Fraction(c, factorial(k)) for d, c in enumerate(rows[k])})
    power = [{(0, 0, 0): Fraction(1)}] + [{} for _ in range(n)]
    for _ in range(m):
        product = [{} for _ in range(n + 1)]
        for i, left in enumerate(power):
            for j in range(n + 1 - i):
                for (a, b, c), x in left.items():
                    for (d, e, f), y in base[j].items():
                        key = (a + d, b + e, c + f)
                        product[i + j][key] = product[i + j].get(key, 0) + x * y
        power = product
    out = {}
    for key, c in power[n].items():
        c *= factorial(n)
        assert c.denominator == 1, (m, n, key, c)
        if c:
            out[key] = int(c)
    return out


def state_completions(left, copies):
    """Number of ways to finish a word whose open values 1..s (opened in
    that order, one copy each so far) still owe left[i] copies and whose
    fresh values s+1.. have copies[j] copies: every arrangement of the
    letters still to place, kept when the whole word passes the literal
    four-index scan."""
    s = len(left)
    head = tuple(range(1, s + 1))
    return sum(
        quartic_quasi_stirling(head + rest)
        for rest in multiset_permutations(tuple(left) + tuple(copies))
    )

"""Seeded inputs and the benchmark's own reference checks.

Nothing here imports qstirling: the checks that decide whether an
operation's output is right must not ask the package under test.

Quasi-Stirling words are generated from their first-letter
decomposition: with r the first letter and k its multiplicity, every
quasi-Stirling word is

    w = r A_1 r A_2 ... r A_{k-1} r B

where A_1, ..., A_{k-1}, B are quasi-Stirling words over pairwise
disjoint sets of the other values. The generator picks r and splits the
remaining values at random, then expands the parts with an explicit
stack, so a word of any length is built without recursion.
"""

import random
from math import factorial


def naive_stats(word):
    """(asc, des, plat) of the word padded with a 0 on each end."""
    if not word:
        return (0, 0, 0)
    seq = (0,) + tuple(word) + (0,)
    asc = des = plat = 0
    for a, b in zip(seq, seq[1:]):
        if a < b:
            asc += 1
        elif a > b:
            des += 1
        else:
            plat += 1
    return (asc, des, plat)


def naive_is_quasi_stirling(word):
    """No a..b..a..b with a != b: the spans [first, last] of the values
    must nest or be disjoint. Checked pairwise on the spans."""
    first = {}
    last = {}
    for pos, v in enumerate(word):
        first.setdefault(v, pos)
        last[v] = pos
    spans = sorted((first[v], last[v], v) for v in first)
    for i, (a0, a1, a) in enumerate(spans):
        for b0, b1, b in spans[i + 1 :]:
            if b0 > a1:
                break
            if b1 > a1:
                return False  # b opens inside a's span and closes after it
            # b nests inside a; no copy of a may sit inside b's span
            if any(word[p] == a for p in range(b0 + 1, b1)):
                return False
    return True


def multiplicities(word):
    """Multiplicity vector (k_1, ..., k_n) of a word over 1..n, or None
    when some value in 1..max is missing."""
    if not word:
        return ()
    counts = [0] * (max(word) + 1)
    for v in word:
        counts[v] += 1
    mult = tuple(counts[1:])
    return mult if all(mult) and min(word) >= 1 else None


def qs_count(mult):
    """Closed-form family size K!/(K-n+1)!."""
    n, K = len(mult), sum(mult)
    return factorial(K) // factorial(K - n + 1)


def psi_steps(mult):
    """Number of psi steps that flatten mult: sum of (k_j - 1)(j - 1)."""
    return sum((k - 1) * (j - 1) for j, k in enumerate(mult, 1))


def flattened(mult):
    n, K = len(mult), sum(mult)
    return (K - n + 1,) + (1,) * (n - 1)


def compositions(total):
    """Every ordered sequence of positive integers summing to total."""
    out = [()] if total == 0 else []
    stack = [((), total)]
    while stack:
        head, left = stack.pop()
        for first in range(1, left + 1):
            part = head + (first,)
            if first == left:
                out.append(part)
            else:
                stack.append((part, left - first))
    return sorted(out)


def random_composition(rng, K, n):
    """Uniform composition of K into n positive parts."""
    cuts = sorted(rng.sample(range(1, K), n - 1))
    bounds = [0] + cuts + [K]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def random_qs_word(rng, mult):
    """A random quasi-Stirling word over the multiset mult."""
    out = []
    stack = [list(range(1, len(mult) + 1))]  # items: value list or letter
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            out.append(item)
            continue
        if not item:
            continue
        r = rng.choice(item)
        k = mult[r - 1]
        groups = [[] for _ in range(k)]  # A_1..A_{k-1}, then B
        for v in item:
            if v != r:
                groups[rng.randrange(k)].append(v)
        seq = []
        for g in groups:
            seq += [r, g]
        stack.extend(reversed(seq))  # so the word reads r A_1 r ... r B
    return tuple(out)


def make_rng(seed, *salt):
    return random.Random("%d/%s" % (seed, "/".join(map(str, salt))))

"""Injective partial self-maps, excedances, and the path-cycle normal form.

A PartialInj stores a sequence of d distinct values from 1..n and reads
it as an injection i -> values[i-1] from {1..d} into {1..n}, d < n.
Its functional graph splits into paths, which leave the domain through
an element larger than d, and cycles. The normal form writes each path
from its start to that terminal, paths sorted by increasing terminal,
and each cycle from its smallest element, cycles sorted by decreasing
smallest element.

chi and delta recode quasi-Stirling words whose only repeated value is
the largest respectively the smallest one into such injections, turning
ascents respectively descents into excedances plus one.
"""

from itertools import permutations
from typing import NamedTuple

from .core import _complement, _expect, _flat_word, _indexable, _integers, _numbers
from .core import word_to_text


class PartialInj:
    __slots__ = ("n", "values")

    def __init__(self, n, values):
        message = "n and the values must be integers"
        (n,) = _integers((n,), message)
        values = _integers(values, message)
        if n < 1:
            raise ValueError("codomain size must be positive")
        if len(values) >= n:
            raise ValueError(
                "domain length %d must be smaller than the codomain size %d"
                % (len(values), n)
            )
        for v in values:
            if not 1 <= v <= n:
                raise ValueError("value %d out of range 1..%d" % (v, n))
        if len(set(values)) != len(values):
            raise ValueError("values must be pairwise distinct")
        self.n = n
        self.values = values

    @property
    def r(self):
        return self.n - len(self.values)

    @classmethod
    def from_text(cls, text):
        """Parse 'n:v1,v2,...' (or 'n:' for an empty domain)."""
        text = _expect(text, str, "partial injection text")
        head, sep, body = text.partition(":")
        n = _numbers(head, "partial injection text", text) if sep else ()
        if len(n) != 1:
            raise ValueError("expected 'n:v1,v2,...', got %r" % text)
        return cls(n[0], _numbers(body, "partial injection text", text))

    def to_text(self):
        return "%d:%s" % (self.n, word_to_text(self.values))

    def __eq__(self, other):
        if not isinstance(other, PartialInj):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __hash__(self):
        return hash((self.n, self.values))

    def __repr__(self):
        return "PartialInj(%d, %r)" % (self.n, self.values)


class PathCycleRep(NamedTuple):
    paths: tuple
    cycles: tuple


def exc(s):
    """Number of positions mapped strictly upward."""
    values = _expect(s, PartialInj, "the injection").values
    return sum(1 for i, v in enumerate(values, 1) if v > i)


def to_path_cycle(s):
    """Decompose the functional graph into the normal form."""
    d = len(_expect(s, PartialInj, "the injection").values)
    image = set(s.values)
    paths = []
    for start in range(1, s.n + 1):
        if start in image:
            continue
        path = [start]
        x = start
        while x <= d:
            x = s.values[x - 1]
            path.append(x)
        paths.append(tuple(path))
    paths.sort(key=lambda p: p[-1])
    used = {x for p in paths for x in p}
    cycles = []
    for start in range(1, d + 1):
        if start in used:
            continue
        cyc = [start]
        used.add(start)
        x = s.values[start - 1]
        while x != start:
            cyc.append(x)
            used.add(x)
            x = s.values[x - 1]
        cycles.append(tuple(cyc))
    cycles.sort(key=lambda c: -c[0])
    return PathCycleRep(tuple(paths), tuple(cycles))


def from_path_cycle(rep):
    """Rebuild the injection from any path-cycle representation.

    The codomain size is the largest element, the domain length is that
    minus the number of paths. Raises on structural defects: elements
    missing or repeated, a path ending inside the domain, interior path
    elements outside it.
    """
    paths, cycles = _int_groups(rep)
    if not paths:
        raise ValueError("at least one path is required")
    if any(not p for p in paths) or any(not c for c in cycles):
        raise ValueError("empty path or cycle")
    elems = [x for p in paths for x in p] + [x for c in cycles for x in c]
    n = max(elems)
    if sorted(elems) != list(range(1, n + 1)):
        raise ValueError("elements must cover 1..%d exactly once" % n)
    d = n - len(paths)
    values = [0] * d
    for p in paths:
        if p[-1] <= d:
            raise ValueError("path %r ends at %d, inside the domain 1..%d" % (p, p[-1], d))
        for a, b in zip(p, p[1:]):
            if a > d:
                raise ValueError("interior path element %d is outside the domain" % a)
            values[a - 1] = b
    # the n - d path ends are distinct and above d, so they are d+1..n
    # and every cycle element lies in the domain
    for c in cycles:
        for idx, a in enumerate(c):
            values[a - 1] = c[(idx + 1) % len(c)]
    return PartialInj(n, values)


def render_path_cycle(rep):
    return _render_groups(*_int_groups(rep))


def _render_groups(paths, cycles):
    """The text of a path-cycle form whose paths and cycles are sequences
    of ints, as to_path_cycle builds them: read as it is, unchecked."""
    text = "".join("<%s>" % word_to_text(p) for p in paths)
    return text + "".join("(%s)" % word_to_text(c) for c in cycles)


def _int_groups(rep):
    """The paths and the cycles of the path-cycle form, each a list of
    tuples of ints; any other content is a ValueError."""
    _expect(rep, PathCycleRep, "the path-cycle form")
    message = "path and cycle elements must be integers"
    try:
        return [[_integers(g, message) for g in field] for field in rep]
    except TypeError:  # a field that is no sequence
        raise ValueError(
            "paths and cycles must be sequences of sequences, got %r" % (rep,)
        ) from None


def parse_path_cycle(text):
    text = _expect(text, str, "path-cycle text")
    paths = []
    cycles = []
    pos = 0
    while pos < len(text):
        if text[pos] == "<":
            close, bucket = ">", paths
        elif text[pos] == "(":
            close, bucket = ")", cycles
        else:
            raise ValueError("expected '<' or '(' at position %d in %r" % (pos, text))
        end = text.find(close, pos + 1)
        if end < 0:
            raise ValueError("unterminated group in %r" % text)
        body = text[pos + 1 : end]
        if not body:
            raise ValueError("empty group in %r" % text)
        bucket.append(_numbers(body, "path-cycle text", text))
        pos = end + 1
    return PathCycleRep(tuple(paths), tuple(cycles))


def chi(w):
    """Recode a word whose largest value n is the only repeated one.

    The copies of n become n, n+1, ... left to right. The prefix up to
    the last copy splits after each of them; those segments are the
    paths. The remainder splits at its left-to-right minima; those
    segments are the cycles, already in normal form. Ascents of the
    word exceed excedances of the result by exactly one.
    """
    w, _, n = _flat_word(w, top=True)
    return _chi(w, n)


def _chi(w, n):
    # w is a word over {1, ..., n-1, n^m}. Each element maps to the next
    # one, except that a relabeled copy of n ends its path, and the last
    # element of a cycle maps back to its first; a cycle closes at the
    # next left-to-right minimum after the last copy, or at the end.
    values = [0] * (n - 1)
    cycles_from = len(w) - w[::-1].index(n)
    top = n
    prev = first = 0
    for i, v in enumerate(w):
        if v == n:
            v = top
            top += 1
        elif i >= cycles_from and (not first or v < first):
            if first:
                values[prev - 1] = first
            first = prev = v
            continue
        if prev:
            values[prev - 1] = v
        prev = v if v < n else 0
    if first:
        values[prev - 1] = first
    return PartialInj(top - 1, values)


def chi_inv(s):
    """Flatten the normal form back into the word: paths then cycles,
    with every element outside the domain collapsed to the value n."""
    rep = to_path_cycle(s)
    n = s.n - len(rep.paths) + 1
    flat = [x for p in rep.paths for x in p] + [x for c in rep.cycles for x in c]
    return tuple(min(x, n) for x in flat)


def delta(w):
    """Same recoding after complementing, for words whose only repeated
    value is 1; descents of the word exceed excedances by one."""
    w, _, n = _flat_word(w)
    return _chi(_complement(w, n), n)


def delta_inv(s):
    # chi_inv(s) runs over 1..n, n = s.n - r + 1 = len(s.values) + 1
    return _complement(chi_inv(s), len(s.values) + 1)


def enumerate_J(n, r):
    """All injections with domain {1..n-r} and codomain 1..n, in
    lexicographic order of their value sequences; there are n!/r!. An
    n past sys.maxsize is a ValueError at the call, as in enumerate_qs."""
    n, r = _integers((n, r), "n and r must be integers")
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    _indexable(n)
    return (PartialInj(n, values) for values in permutations(range(1, n + 1), n - r))

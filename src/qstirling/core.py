"""Multiset permutations and their boundary statistics.

A multiset is described by its multiplicity vector (k_1, ..., k_n),
standing for {1^k_1, ..., n^k_n} with every k_i >= 1. A word is a
permutation of such a multiset, stored as a plain tuple of ints.

Statistics are taken against zero sentinels on both ends: a word of
length L is scanned over positions 0..L with w_0 = w_{L+1} = 0, so
asc + des + plat = L + 1 for every nonempty word, and the empty word
has all three equal to zero.

A word is quasi-Stirling when no two distinct values interleave, i.e.
there are no positions i < j < k < l with w_i = w_k, w_j = w_l and
w_i != w_j. Equivalently the spans [first occurrence, last occurrence]
of the distinct values form a nested family, which is what the linear
recognizer below checks with a stack of open values.

Everything in this module is a pure function on immutable data.
"""

import sys
from collections import Counter
from functools import lru_cache
from itertools import chain
from math import perm
from operator import mul
from typing import Iterator, NamedTuple

from .exactpoly import PolyTUV, _integers


class StatTriple(NamedTuple):
    asc: int
    des: int
    plat: int


class MultisetSpec:
    """Multiplicity vector for the ground multiset.

    `n` is the number of distinct values, `K` the total size. The empty
    spec is allowed as a degenerate value (bare-root tree, empty word);
    all counting machinery assumes n >= 1.
    """

    __slots__ = ("mult",)

    def __init__(self, mult):
        mult = _integers(mult, "multiplicities must be integers")
        if mult and min(mult) < 1:
            raise ValueError("multiplicities must be >= 1")
        self.mult = mult

    @property
    def n(self):
        return len(self.mult)

    @property
    def K(self):
        return sum(self.mult)

    @classmethod
    def from_text(cls, text):
        text = _expect(text, str, "multiplicity list")
        mult = _numbers(text, "multiplicity list", strip=True)
        if not mult:
            raise ValueError("empty multiplicity list")
        return cls(mult)

    def to_text(self):
        return word_to_text(self.mult)

    def __eq__(self, other):
        if isinstance(other, MultisetSpec):
            return self.mult == other.mult
        return NotImplemented

    def __hash__(self):
        return hash(self.mult)

    def __repr__(self):
        return "MultisetSpec(%r)" % (self.mult,)


def _as_spec(m):
    """m if it is a MultisetSpec, else the spec of the multiplicities m."""
    return m if isinstance(m, MultisetSpec) else MultisetSpec(m)


def _expect(obj, cls, what):
    """obj if it is a cls; anything else is a ValueError naming what."""
    if not isinstance(obj, cls):
        raise ValueError("%s must be a %s, got %r" % (what, cls.__name__, obj))
    return obj


def _numbers(text, what, whole=None, strip=False):
    """The comma-separated integers in text, () if it is empty. Every
    number the program reads as text comes through here, but for tree
    labels: trees._parse_label reads a run of ASCII digits. int() alone
    would also read a digit of another script ('\u0663' is 3), a '_'
    ('1_0' is 10) and a '+' sign, so any of these is a ValueError naming
    whole, the text the numbers came from. strip=True strips the text
    after that check, so a blank text is () but an NBSP is still refused."""
    try:
        if text.isascii() and "_" not in text and "+" not in text:
            body = text.strip() if strip else text
            return tuple(map(int, body.split(","))) if body else ()
    except ValueError:
        # int() refuses a number past sys.get_int_max_str_digits() digits
        limit = getattr(sys, "get_int_max_str_digits", int)()
        for number in body.split(","):
            digits = number.strip().lstrip("-")
            if limit and len(digits) > limit and digits.isdigit():
                raise ValueError(
                    "bad %s: a number of %d digits, past the limit of %d "
                    "digits on integer text" % (what, len(digits), limit)
                ) from None
    raise ValueError(
        "bad %s %r (numbers take ASCII digits only, no '_' or '+')"
        % (what, text if whole is None else whole)
    )


def word_from_text(text):
    """Parse the comma-separated wire format; blank text is the empty word."""
    word = _numbers(_expect(text, str, "word text"), "word text", strip=True)
    if word and min(word) < 1:
        raise ValueError("word values must be positive")
    return word


def word_to_text(word):
    try:  # int.__repr__ refuses a value that is no int, as str() would not
        return ",".join(map(int.__repr__, word))
    except TypeError:  # word is no sequence, or a value no int
        raise ValueError("word values must be integers") from None


def word_spec(word):
    """Recover the MultisetSpec a word is a permutation of.

    Every multiset has all multiplicities >= 1, so each of 1..n must
    occur; a gap means the word belongs to no valid multiset.
    """
    return _read_word(word)[1]


def _read_word(word):
    """The word as a tuple of ints and its MultisetSpec, read once."""
    word = _integers(word, "word values must be integers")
    if not word:
        return word, MultisetSpec(())
    if min(word) < 1:
        raise ValueError("word values must be positive")
    present = set(word)
    if len(present) != max(word):
        # sought among the distinct values: the maximum may be astronomical
        missing = next(v for v in range(1, len(present) + 1) if v not in present)
        raise ValueError("value %d is absent from %r" % (missing, word))
    counts = [0] * (len(present) + 1)
    for v in word:
        counts[v] += 1
    return word, MultisetSpec(counts[1:])


def _flat_word(word, top=False):
    """(word as ints, m, n) for a word over {1^m, 2, ..., n}, or with
    top=True over {1, ..., n-1, n^m}; raises ValueError for any other word.

    Such a word is always quasi-Stirling: a crossing a b a b needs two
    distinct values that each repeat.
    """
    word, spec = _read_word(word)
    n = spec.n
    if n == 0:
        raise ValueError("empty word")
    if top:
        m = spec.mult[-1]
        if spec.mult != (1,) * (n - 1) + (m,):
            raise ValueError("only the largest value may repeat in this word")
    else:
        m = spec.mult[0]
        if spec.mult != (m,) + (1,) * (n - 1):
            raise ValueError("only the value 1 may repeat in this word")
    return word, m, n


def stats(word) -> StatTriple:
    """Count ascents, descents and plateaux against the zero sentinels."""
    asc = des = plat = 0
    prev = 0
    try:
        for v in word:
            if prev < v:
                asc += 1
            elif prev > v:
                des += 1
            else:
                plat += 1
            prev = v
    except TypeError:  # word is no sequence, or a value no number
        raise ValueError("word values must be integers") from None
    if asc or des or plat:  # a letter was read: the trailing sentinel
        des += 1
    return StatTriple(asc, des, plat)


def _tuple_stats(parts):
    """(asc, des, plat) of a tuple of sequences: ascents and descents
    summed over the nonempty parts, one plateau per empty part."""
    nonempty = [stats(part) for part in parts if part]
    asc = sum(st.asc for st in nonempty)
    des = sum(st.des for st in nonempty)
    return StatTriple(asc, des, len(parts) - len(nonempty))


def is_quasi_stirling(word) -> bool:
    """True iff no two distinct values occur in the crossing pattern abab."""
    try:
        word = tuple(word)  # read once: hashed whole, then scanned
        set(word)  # an unhashable value is refused before any verdict
    except TypeError:  # word is no sequence, or a value unhashable
        raise ValueError("word values must be integers") from None
    # a repeat of v closes every value opened after v; a closed value
    # seen again is the crossing
    seen = set()
    closed = set()
    stack = []  # the values opened and not closed, in order
    for v in word:
        if v in seen:
            if v in closed:
                return False
            while stack[-1] != v:
                closed.add(stack.pop())
        else:
            seen.add(v)
            stack.append(v)
    return True


def is_stirling(word) -> bool:
    """True iff every value sitting between two equal values exceeds them."""
    try:
        word = tuple(word)  # read once: counted, then scanned
        counts = Counter(word)
    except TypeError:  # word is no sequence, or a value unhashable
        raise ValueError("word values must be integers") from None
    if any(c > 2 for c in counts.values()):
        return False  # a middle copy of the value is not above it
    # the values whose second copy is still ahead, increasing upward
    stack = []
    for v in word:
        if stack and v <= stack[-1]:
            if v != stack.pop():
                return False
        elif counts[v] == 2:
            stack.append(v)
    return True


def enumerate_qs(spec) -> Iterator[tuple]:
    """Iterate over the quasi-Stirling permutations of the multiset in lex order.

    A search with the open-value stack: a value may be placed only when
    it is fresh or currently on top of the stack, which prunes exactly
    the crossing patterns. A state (the stack and the copies placed) has
    _completions(rest, C, f) completions, with rest letters to go and f
    fresh values holding C copies; from the empty state, qs_count. The
    search places one letter at a time until they fit one chunk of at
    most _CHUNK characters, or two words, and yields them in one string,
    each after the letters placed so far.

    A state's completions are one string, joined by a marker, built from
    those of the states one letter below it: the join, over each next
    letter x in order, of x + that state's string with x put after each
    marker, a few C calls per (state, letter) pair and not one step per
    word. Once one value f is fresh, the rest is forced but for where the
    block of its copies goes in the tail, the letters that close the
    open values from the top down; the same join, run from the end of
    the tail, spells such a state, as its next letter is the block,
    which leaves one completion, or the tail's. A state of one fresh
    value whose words do not fit a chunk hands them over one at a time,
    so the words stream at any K.

    A memo kept for the call holds the strings of the states with two
    fresh values or more, keyed by the open values with their remaining
    copies and the fresh values, which is all that the completions
    depend on. The CLI writes the 55,440 words of (1,3,1,1,3,2) in 353
    chunks, from 338 strings that the memo keeps. It keeps the strings of
    at most _MEMO_SMALL characters, which their parents keep asking for,
    and empties before it would hold _MEMO_CHARS characters.

    Each letter v is written as the byte v, and zip cuts the words out
    of the chunks; with more than 255 values, as the character v, read
    back by ord, so that a family of 0x110000 values or more is refused
    with a ValueError. The CLI passes the pieces ",v" and its separator
    and writes the chunks as they come. The search runs on one explicit
    stack, so K is bounded by memory only.
    """
    return _enumerate_qs(_as_spec(spec).mult)


# _walk hands over its words in chunks of at most _CHUNK characters. Its
# memo, a dict keyed by bytes while every value and count fits in one,
# which the collector does not track, keeps the states of at most
# _MEMO_SMALL characters, and empties before its strings and keys would
# pass _MEMO_CHARS characters and items
_CHUNK = 1 << 13
_MEMO_SMALL = 1 << 11
_MEMO_CHARS = 1 << 19
_Memo = dict
_BYTES = [bytes((v,)) for v in range(256)]  # the pieces of the tuple words


def _indexable(K):
    """K, if a word or tree of K letters can be indexed: past sys.maxsize
    an enumerator refuses the family with a ValueError at the call."""
    if K > sys.maxsize:
        raise ValueError("K = %d is too large to enumerate" % K)
    return K


def _enumerate_qs(mult, unit=None, sep=None):
    """The words of the family in lex order: tuples; given the text piece
    unit[v] of each letter v and the separator sep, the chunks of _walk."""
    n = len(mult)
    cap = (0, *mult)
    K = _indexable(sum(cap))
    if n < 2:  # one word; n = 0: the empty one
        return iter([(1,) * K if unit is None else (unit[n] * K)[1:]])
    if unit is not None:  # a text word drops the comma of its first piece
        return _walk(cap, unit, sep, 1)
    # each letter v is the byte v, or past 255 the character v, and zip
    # cuts the words out of the letters
    if n < 256:
        letters = chain.from_iterable(_walk(cap, _BYTES, b"", 0))
    elif n < 0x110000:
        letters = map(ord, chain.from_iterable(_walk(cap, [*map(chr, range(n + 1))], "", 0)))
    else:
        raise ValueError("%d distinct values are too many to enumerate as tuples" % n)
    return zip(*[letters] * K)


def _walk(cap, unit, sep, lead):
    """The words of the family with the counts cap[1:], n >= 2, in lex
    order, each letter v written as the piece unit[v] (bytes or text),
    in chunks of whole words joined by sep: chunks of at most _CHUNK
    characters or two words, and one word at a time where more do not
    fit. A word drops the first lead characters of its first piece. Each
    depth keeps the next value to try there and, below a state that
    makes one chunk, the strings built so far for the state it builds."""
    n = len(cap) - 1
    K = copies = sum(cap)  # copies of the fresh values
    mark = "\0" if isinstance(sep, str) else b"\0"
    empty = mark[:0]
    width = sum(map(mul, map(len, unit), cap)) - lead + len(sep)  # a word, its sep
    most = max(2, _CHUNK // width)  # completions in one chunk
    memo, held = _Memo(), 0
    stack, placed = [], [0] * (n + 1)
    fresh = n
    word, next_try, parts, keys = [], [1], [None], []
    while True:
        top = stack[-1] if stack else 0
        v = next_try[-1]
        while v <= n and placed[v] and v != top:
            v += 1
        if v <= n:
            next_try[-1] = v + 1
            if not placed[v]:
                stack.append(v)
                fresh -= 1
                copies -= cap[v]
            placed[v] += 1
            if placed[v] == cap[v]:
                stack.pop()
            word.append(unit[v])
            # more words than a chunk holds? f fresh values put at least
            # 2^(f - 1) completions below, so a large f multiplies no big ints
            big = parts[-1] is None and (
                1 << fresh - 1 > most or _completions(K - len(word), copies, fresh) > most
            )
            if fresh == 1:  # never 0: no state with one fresh value is walked below
                # the rest is forced but for where the block of f goes in
                # the tail, the letters that close the open values from
                # the top down: before a letter u, it comes before every
                # later place exactly when f < u
                f = placed.index(0, 1)
                if big:  # one word at a time
                    yield from _forced(cap, unit, stack, placed, f, empty.join(word)[lead:])
                    s = None
                else:  # the string of the state, from the end of the tail
                    s = block = unit[f] * cap[f]
                    tail = empty
                    for u in stack:
                        x = unit[u]
                        for _ in range(cap[u] - placed[u]):
                            tail = x + tail
                            s = x + s.replace(mark, mark + x)
                            s = block + tail + mark + s if f < u else s + mark + block + tail
            elif big:
                next_try.append(1)  # walk on below this letter
                parts.append(None)
                continue
            else:
                try:
                    key = bytes(stack + placed)
                except ValueError:  # a value or a count past 255
                    key = (*stack, *placed)
                s = memo.get(key)
                if s is None:
                    next_try.append(1)  # build this state from those below it
                    parts.append([])
                    keys.append(key)
                    continue
        else:
            next_try.pop()
            built = parts.pop()
            if not next_try:
                return
            s = None
            if built is not None:
                s = mark.join(built)
                key = keys.pop()
                if len(s) <= _MEMO_SMALL:
                    held += len(s) + len(key)
                    if held > _MEMO_CHARS:
                        memo.clear()
                        held = len(s) + len(key)
                    memo[key] = s
        if s is not None:
            if parts[-1] is None:
                head = empty.join(word)[lead:]
                yield head + s.replace(mark, sep + head)
            else:
                x = word[-1]
                parts[-1].append(x + s.replace(mark, mark + x))
        # take back the last letter, the value tried last at this depth
        word.pop()
        v = next_try[-1] - 1
        if placed[v] == cap[v]:
            stack.append(v)
        placed[v] -= 1
        if not placed[v]:
            stack.pop()
            fresh += 1
            copies += cap[v]


def _forced(cap, unit, stack, placed, f, head):
    """The words, one at a time, of the state whose one fresh value is f
    and whose letters placed so far are head: the block of all copies of
    f before each letter above f of the tail in turn, then last, then
    before each letter below f from the back."""
    tail = head[:0].join([unit[u] * (cap[u] - placed[u]) for u in reversed(stack)])
    block = unit[f] * cap[f]
    at, below = 0, []
    for u in reversed(stack):
        for _ in range(cap[u] - placed[u]):
            if f < u:
                yield head + tail[:at] + block + tail[at:]
            else:
                below.append(at)
            at += len(unit[u])
    for at in (at, *reversed(below)):
        yield head + tail[:at] + block + tail[at:]


def _completions(rest, copies, fresh):
    """The number of completions of a state with rest letters to go
    and fresh unplaced values holding copies letters; qs_count and
    _walk read it."""
    return (rest - copies + 1) * perm(rest, fresh - 1) if fresh else 1


def qs_count(spec) -> int:
    """Size K!/(K-n+1)! of the quasi-Stirling family of the multiset."""
    spec = _as_spec(spec)
    return _completions(spec.K, spec.K, spec.n)


def qs_polynomial(spec) -> PolyTUV:
    """Joint distribution of (des, asc, plat) over the quasi-Stirling words,
    as a polynomial with t marking descents, u ascents, v plateaux.

    The words are counted once per multiset and process, in
    `_family_counts`, and each call returns a fresh polynomial."""
    return PolyTUV(_family_counts(_as_spec(spec).mult))


@lru_cache(maxsize=None)
def _family_counts(mult):
    """The ((des, asc, plat), count) pairs of the words over mult, counted
    by `stats` over the words; one entry per multiset, of at most
    (K + 2)(K + 3)/2 pairs. The brute-force side of the verify checks."""
    return tuple(_stat_polynomial(map(stats, _enumerate_qs(mult))).terms.items())


def _stat_polynomial(triples):
    """Sum of t^des u^asc v^plat over (asc, des, plat) triples."""
    return PolyTUV(Counter((d, a, p) for a, d, p in triples))


def _complement(word, n):
    return tuple(n + 1 - v for v in word)


def complement(word, n):
    """Replace every value i by n + 1 - i; swaps ascents with descents."""
    message = "n and the word values must be integers"
    (n,) = _integers((n,), message)
    word = _integers(word, message)
    if any(not 1 <= v <= n for v in word):
        raise ValueError("word values must lie in 1..%d" % n)
    return _complement(word, n)

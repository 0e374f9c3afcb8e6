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
from math import perm
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
        pass
    raise ValueError(
        "bad %s %r (numbers take ASCII digits only, no '_' or '+')"
        % (what, text if whole is None else whole)
    )


def word_from_text(text):
    """Parse the comma-separated wire format; blank text is the empty word."""
    word = _numbers(_expect(text, str, "word text"), "word text", strip=True)
    if any(v < 1 for v in word):
        raise ValueError("word values must be positive")
    return word


def word_to_text(word):
    return ",".join(str(v) for v in word)


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
    if not word:
        return StatTriple(0, 0, 0)
    asc = des = plat = 0
    prev = 0
    for v in word:
        if prev < v:
            asc += 1
        elif prev > v:
            des += 1
        else:
            plat += 1
        prev = v
    des += 1  # trailing sentinel: prev > 0
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
    first = {}
    last = {}
    for pos, v in enumerate(word):
        if v not in first:
            first[v] = pos
        last[v] = pos
    stack = []
    for pos, v in enumerate(word):
        if first[v] == pos:
            stack.append(v)
        elif stack[-1] != v:
            return False
        if last[v] == pos:
            stack.pop()
    return True


def is_stirling(word) -> bool:
    """True iff every value sitting between two equal values exceeds them."""
    counts = Counter(word)
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

    Backtracking with the open-value stack: a value may be placed only
    when it is fresh or currently on top of the stack, which prunes
    exactly the crossing patterns. Once a single value f is still fresh,
    the rest is forced but for where f goes: the open values close from
    the top down (the tail), with the block of all copies of f at some
    position of the tail. So the search takes one step per letter until
    a single value is fresh, then builds the letters placed so far (the
    head) once and each word as the head + the tail cut at one place +
    the block.

    With six distinct values or more, the search also stops one level
    higher, at a state with two fresh values, and takes the state's
    completions from a memo kept for the call. They depend only on the
    open values with their remaining copies and on the two fresh values,
    which key the memo, and such states repeat: the 55,440 words of
    (1,3,1,1,3,2) need only 233 lists. A list is built once, by the same
    walk, run below the state without the memo. Each word is then the
    head + a completion, one concatenation per word. With fewer values
    a state is reached by few heads, and building its list cost more
    than walking below it ((4,4,4,4) took 1.3 times as long), so those
    families keep the letter-by-letter search.

    Two size rules bound the memory. A state is taken from the memo only
    if its completions hold at most 1,024 letters (the rule is stated at
    _Memo.group); a larger state is walked letter by letter. The memo is
    emptied when it holds 65,536 letters. No list holds more than 1,024
    letters and each word is yielded as soon as it is made, so the words
    stream at any family size.

    The search writes a letter v as the piece unit[v]: (v,) here; the
    CLI passes the text ",v", and the first piece of a word drops its
    comma, so each word comes out as its text. The CLI also passes its
    separator, and takes all the words of a memo state as one string,
    the head + each completion joined by the separator in one call;
    here each word is yielded on its own. It runs on explicit
    stacks, keeping per depth the next value to try there, and the walk
    that builds a list uses no memo, so at most two walks are live at
    once and K is bounded by memory only.
    """
    return _enumerate_qs(_as_spec(spec).mult)


# The memo of _enumerate_qs serves families of at least _MEMO_VALUES
# distinct values. _GROUP_LETTERS bounds the letters of one state's
# completions, and the memo is emptied once it holds _MEMO_LETTERS
_MEMO_VALUES = 6
_GROUP_LETTERS = 1 << 10
_MEMO_LETTERS = 1 << 16


def _indexable(K):
    """K, if a word or tree of K letters can be indexed: past sys.maxsize
    an enumerator refuses the family with a ValueError at the call."""
    if K > sys.maxsize:
        raise ValueError("K = %d is too large to enumerate" % K)
    return K


def _enumerate_qs(mult, unit=None, sep=None):
    n = len(mult)
    K = _indexable(sum(mult))
    ints = unit is None
    unit = [(v,) for v in range(n + 1)] if ints else unit
    if n < 2:
        word = unit[n] * K  # n = 0: the empty word, whatever the piece
        return iter([word if ints else word[1:]])
    cap = (0,) + mult
    memo = _Memo(cap, unit) if n >= _MEMO_VALUES else None
    return _walk(cap, unit, [], [0] * (n + 1), K, memo, 1, sep)


def _walk(cap, unit, stack, placed, rest, memo, lead, sep=None):
    """The completions in lex order of the state (stack, placed), which
    has rest letters to go: the search of enumerate_qs, run below it.
    With a memo it stops at two fresh values too; a text completion
    drops the first lead characters of its first piece. Given sep, a
    text walk yields all the words of a memo state as one string, the
    words joined by sep."""
    n = len(cap) - 1
    ints = type(unit[0]) is tuple
    low = 1 if memo is None else 2
    fresh = placed.count(0) - 1  # placed[0] stays 0
    # word holds v, or its text piece, so that a head is one join
    letters = list(range(n + 1)) if ints else unit
    word = []
    next_try = [1]
    while next_try:
        top = stack[-1] if stack else 0
        v = next_try[-1]
        while v <= n and placed[v] and v != top:
            v += 1
        if v <= n:
            next_try[-1] = v + 1
            if not placed[v]:
                stack.append(v)
                fresh -= 1
            placed[v] += 1
            if placed[v] == cap[v]:
                stack.pop()
            word.append(letters[v])
            if fresh > low or (
                fresh == 2
                and (group := memo.group(stack, placed, rest - len(word))) is None
            ):
                next_try.append(1)  # walk on below this letter
                continue
            head = tuple(word) if ints else "".join(word)[lead:]
            if fresh == 2:
                if sep is None:
                    yield from map(head.__add__, group)
                else:
                    yield head + (sep + head).join(group)
            else:
                f = placed.index(0, 1)
                tail = head[:0]
                # the offsets of the tail's letters above and below f: f at
                # a letter u comes before every later place exactly when f < u
                above, below = [], []
                for u in reversed(stack):
                    run = unit[u] * (cap[u] - placed[u])
                    at = range(len(tail), len(tail) + len(run), len(unit[u]))
                    (above if f < u else below).extend(at)
                    tail += run
                block = unit[f] * cap[f]
                for i in above:
                    yield head + tail[:i] + block + tail[i:]
                yield head + tail + block
                for i in reversed(below):
                    yield head + tail[:i] + block + tail[i:]
        else:
            next_try.pop()
            if not word:
                return
        # take back the last letter, the value tried last at this depth
        word.pop()
        v = next_try[-1] - 1
        if placed[v] == cap[v]:
            stack.append(v)
        placed[v] -= 1
        if not placed[v]:
            stack.pop()
            fresh += 1


class _Memo:
    """The completions of the states with two fresh values met by one
    enumeration, keyed by the open-value stack and the placed counts,
    which fix the open values, their remaining copies and the fresh
    values. A state's list is built by the walk, run below the state
    without a memo. The memo keeps about _MEMO_LETTERS letters and key
    bytes at most: when full, it is emptied, and the states met next are
    built again.

    The keys are bytes while every value and count fits in one, and each
    state's completions are a run of one list, found by a range. So in
    text the memo adds no object that the garbage collector tracks, and
    starts no collection that would land in the calls after it."""

    __slots__ = ("cap", "unit", "runs", "words", "held")

    def __init__(self, cap, unit):
        self.cap = cap
        self.unit = unit
        self.runs = {}  # state key -> range of its completions in words
        self.words = []
        self.held = 0  # letters in words, and bytes in the keys

    def group(self, stack, placed, rest):
        """The completions of the state, which has rest letters to go, or
        None if they hold more than _GROUP_LETTERS letters. With C copies
        of its two fresh values, the state has (rest - C + 1) * rest
        completions of rest letters each."""
        try:
            key = bytes(stack + placed)
        except ValueError:  # a value or a count past 255
            key = (*stack, *placed)
        run = self.runs.get(key)
        if run is not None:
            return self.words[run.start : run.stop]
        copies = sum([c for c, p in zip(self.cap, placed) if not p])  # cap[0] is 0
        if (rest - copies + 1) * rest * rest > _GROUP_LETTERS:
            return None
        words = self.build(stack, placed, rest)
        if self.held > _MEMO_LETTERS:
            self.runs.clear()
            self.words.clear()
            self.held = 0
        self.runs[key] = range(len(self.words), len(self.words) + len(words))
        self.words += words
        self.held += len(words) * rest + len(key)
        return words

    def build(self, stack, placed, rest):
        """The state's completions: the walk, run below it without a memo."""
        return list(_walk(self.cap, self.unit, stack[:], placed[:], rest, None, 0))


def qs_count(spec) -> int:
    """Size K!/(K-n+1)! of the quasi-Stirling family of the multiset."""
    spec = _as_spec(spec)
    # the empty multiset has one word, the empty one
    return perm(spec.K, spec.n - 1) if spec.n else 1


def qs_polynomial(spec) -> PolyTUV:
    """Joint distribution of (des, asc, plat) over the quasi-Stirling words,
    as a polynomial with t marking descents, u ascents, v plateaux."""
    return _stat_polynomial(map(stats, enumerate_qs(spec)))


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

"""Words, statistics, recognizers and enumeration, checked against the
definitional oracles."""

import hashlib
import sys
import time
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import islice
from math import factorial
from types import SimpleNamespace

import pytest

import qstirling as q
import oracles
import sweeps
from qstirling import cli, core

FIGURE_WORD = (2, 7, 4, 7, 5, 6, 3, 3, 5, 1, 5)


def test_word_wire_round_trip():
    assert q.word_from_text("2,7,4") == (2, 7, 4)
    assert q.word_from_text("") == ()
    assert q.word_from_text(" 1,2 ") == (1, 2)
    with pytest.raises(ValueError, match="positive"):
        q.word_from_text("-1")  # read as -1, not refused as text
    assert q.word_to_text((2, 7, 4)) == "2,7,4"
    assert q.word_to_text(()) == ""


@pytest.mark.parametrize("bad", ["a", "1,,2", "0", "-1", "1 2", "\u00a01"])
def test_word_from_text_rejects(bad):
    with pytest.raises(ValueError):
        q.word_from_text(bad)


# reader: (writer, objects)
WIRE_FORMS = {
    q.word_from_text: (q.word_to_text, [(), (1,), (2, 7, 4), (10, 1, 10)]),
    q.MultisetSpec.from_text: (
        q.MultisetSpec.to_text,
        [q.MultisetSpec(m) for m in [(1,), (2, 2, 1), (12, 1)]],
    ),
    q.PartialInj.from_text: (
        q.PartialInj.to_text,
        [q.PartialInj(1, ()), q.PartialInj(3, (2,)), q.PartialInj(12, (10, 1))],
    ),
    q.parse_path_cycle: (
        q.render_path_cycle,
        [q.PathCycleRep(((1,),), ()), q.PathCycleRep(((4, 6, 9), (10,)), ((1, 7, 3),))],
    ),
    q.perm_tuple_from_text: (
        q.perm_tuple_to_text,
        [((),), ((), (), ()), ((3, 1), (), (2,)), ((), (10, 1))],
    ),
}


# int() reads other scripts' digits, '_' between digits and a '+' sign;
# the wire formats take ASCII digits only
@pytest.mark.parametrize(
    "parse, text",
    [
        (q.word_from_text, "\u0663"),
        (q.word_from_text, "1_0"),
        (q.word_from_text, "+2"),
        (q.word_from_text, "1,\u0662"),
        (q.MultisetSpec.from_text, "\u0661,\u0661"),
        (q.MultisetSpec.from_text, "2,1_0"),
        (q.PartialInj.from_text, "3:+1"),
        (q.PartialInj.from_text, "\u0663:1"),
        (q.parse_path_cycle, "<1_0>"),
        (q.parse_path_cycle, "(+1)"),
        (q.perm_tuple_from_text, "+1|2"),
        (q.perm_tuple_from_text, "1|\uff12"),
    ],
)
def test_wire_parsers_take_ascii_digits_only(parse, text):
    with pytest.raises(ValueError, match="ASCII digits only"):
        parse(text)
    # and each reads back what its writer writes
    write, objects = WIRE_FORMS[parse]
    for x in objects:
        assert parse(write(x)) == x, x


def test_multiset_wire():
    spec = q.MultisetSpec.from_text("2,2,1")
    assert spec.mult == (2, 2, 1)
    assert spec.n == 3
    assert spec.K == 5
    assert spec.to_text() == "2,2,1"
    assert q.MultisetSpec.from_text(" 2,1 ").mult == (2, 1)
    for bad in ["", "0,1", "2,-1", "x"]:
        with pytest.raises(ValueError):
            q.MultisetSpec.from_text(bad)


@pytest.mark.parametrize("bad", [(2.7, 1), (2, 1.0), ("3",), (None,)])
def test_multiset_rejects_non_integer_multiplicities(bad):
    # int() would truncate 2.7 to 2 and carry on over the wrong multiset
    with pytest.raises(ValueError, match="must be integers"):
        q.MultisetSpec(bad)
    with pytest.raises(ValueError, match="must be integers"):
        q.transport((1, 1, 2), bad)


def test_word_spec():
    assert q.word_spec((2, 1, 2)).mult == (1, 2)
    assert q.word_spec(()).mult == ()
    with pytest.raises(ValueError):
        q.word_spec((1, 3))  # value 2 missing
    with pytest.raises(ValueError):
        q.word_spec((0, 1))
    # a huge maximum names the gap without allocating a counter per value
    with pytest.raises(ValueError, match="value 1 is absent"):
        q.word_spec((10**20,))
    with pytest.raises(ValueError, match="value 2 is absent"):
        q.word_spec((1, 10**9, 1))


def test_word_spec_rejects_non_integer_letters():
    # and so does every word map, which reads the spec first
    for word in ((1.0,), (1, 2.0, 1), ("1",)):
        with pytest.raises(ValueError, match="must be integers"):
            q.word_spec(word)
        with pytest.raises(ValueError, match="must be integers"):
            q.phi_inv(word)


def test_stats_examples():
    assert q.stats((1, 2, 2, 1)) == (2, 2, 1)
    assert q.stats(FIGURE_WORD) == (6, 5, 1)
    assert q.stats(()) == (0, 0, 0)
    assert q.stats((1,)) == (1, 1, 0)
    assert q.stats((1, 1)) == (1, 1, 1)
    st = q.stats((3, 1, 2))
    assert (st.asc, st.des, st.plat) == (2, 2, 0)


def test_stats_matches_oracle_on_all_small_words():
    for mult in sweeps.all_mults(6):
        for w in oracles.multiset_permutations(mult):
            st = q.stats(w)
            assert (st.asc, st.des, st.plat) == oracles.sentinel_stats(w)
            assert st.asc + st.des + st.plat == len(w) + 1


def test_quasi_stirling_examples():
    assert not q.is_quasi_stirling((1, 2, 1, 2))
    assert q.is_quasi_stirling((2, 1, 1, 2))
    assert q.is_quasi_stirling(FIGURE_WORD)
    # a single repeated value never crosses itself
    assert q.is_quasi_stirling((1, 1, 1, 1))
    assert q.is_quasi_stirling((1, 2, 1, 1, 3))
    # but two interleaved repeating values do cross
    assert not q.is_quasi_stirling((1, 2, 1, 1, 2))
    assert q.is_quasi_stirling(())


def test_stirling_examples():
    assert q.is_stirling((1, 2, 2, 1))
    assert not q.is_stirling((2, 1, 1, 2))
    assert not q.is_stirling((1, 2, 1, 2))
    assert not q.is_stirling((1, 1, 1))
    assert q.is_stirling(())


def test_recognizers_match_oracles():
    for mult in sweeps.all_mults(6):
        for w in oracles.multiset_permutations(mult):
            assert q.is_quasi_stirling(w) == oracles.quartic_quasi_stirling(w)
            assert q.is_stirling(w) == oracles.cubic_stirling(w)
            if q.is_stirling(w):
                assert q.is_quasi_stirling(w)


def test_enumeration_differential_and_count():
    # the family equals the filtered arrangements, in strict lex order,
    # and its size follows the closed formula
    for mult in sweeps.all_mults(7):
        spec = q.MultisetSpec(mult)
        words = list(sweeps.qs_words(mult))
        filtered = [
            w
            for w in oracles.multiset_permutations(mult)
            if q.is_quasi_stirling(w)
        ]
        assert words == filtered
        assert all(a < b for a, b in zip(words, words[1:]))
        assert len(words) == factorial(spec.K) // factorial(spec.K - spec.n + 1)
        assert q.qs_count(spec) == len(words)


def test_enumeration_differential_full_size():
    # same differential at the top of the verified range
    for mult in sweeps.compositions(8):
        spec = q.MultisetSpec(mult)
        filtered = [
            w
            for w in oracles.multiset_permutations(mult)
            if q.is_quasi_stirling(w)
        ]
        assert list(sweeps.qs_words(mult)) == filtered
        assert len(filtered) == factorial(8) // factorial(8 - spec.n + 1)


@pytest.mark.parametrize("mult", [(3, 1, 3, 2, 1), (1, 3, 2, 3, 1)])
def test_enumeration_differential_past_the_sweep(mult):
    # K = 10: the value left fresh last falls below some values still
    # open and above others, so its block goes both before and after them
    spec = q.MultisetSpec(mult)
    words = list(q.enumerate_qs(spec))
    assert words == [
        w for w in oracles.multiset_permutations(mult) if q.is_quasi_stirling(w)
    ]
    assert len(words) == q.qs_count(spec)


def test_enumeration_properties_at_fourteen_letters():
    mult = (5, 1, 4, 1, 3)
    want = Counter(dict(enumerate(mult, 1)))
    spec = q.MultisetSpec(mult)
    words = list(q.enumerate_qs(spec))
    assert len(words) == q.qs_count(spec) == factorial(14) // factorial(10)
    assert all(a < b for a, b in zip(words, words[1:]))
    assert all(Counter(w) == want and q.is_quasi_stirling(w) for w in words)


def test_text_kernel_spells_the_tuple_words():
    # pieces of unequal widths, as the CLI's ",10" is wider than ",9";
    # each piece opens with a separator, which the word's first one drops
    for mult in sweeps.all_mults(7) + [(3, 1, 3, 2, 1)]:
        unit = ["," + "x" * v for v in range(len(mult) + 1)]
        want = [",".join("x" * v for v in w) for w in sweeps.qs_words(mult)]
        assert list(core._enumerate_qs(mult, unit)) == want, mult


@pytest.mark.parametrize("sep", ["\n", '", "'])
def test_text_chunks_are_the_words_joined(monkeypatch, sep):
    # given a separator, the text search yields the words of each memo
    # state as one chunk: joined by it, the chunks are the words joined
    # by it, in pieces of unequal widths. Only a memo family has fewer
    # chunks than words
    def chunks_and_words(mult, limit=None):
        unit = ["," + "x" * v for v in range(len(mult) + 1)]
        chunks = list(islice(core._enumerate_qs(mult, unit, sep), limit))
        text = sep.join(chunks)
        words = list(islice(core._enumerate_qs(mult, unit), text.count(sep) + 1))
        assert text == sep.join(words), mult
        return len(chunks), len(words)

    for mult in sweeps.all_mults(7) + [(1, 3, 1, 1, 3, 2)]:
        chunks, words = chunks_and_words(mult)
        assert words == q.qs_count(mult)
        assert (chunks < words) == (len(mult) >= core._MEMO_VALUES), mult
    # the first chunks of a family whose memo keys are tuples
    chunks, words = chunks_and_words((300, 1, 1, 1, 1, 2), 2000)
    assert chunks == 2000 < words
    # a memo that empties itself many times over
    monkeypatch.setattr(core, "_MEMO_LETTERS", 300)
    chunks, words = chunks_and_words((2,) * 6)
    assert chunks < words == q.qs_count((2,) * 6)


@pytest.mark.parametrize("mult, memo", [((2, 1, 3, 1, 2), False), ((1, 2, 1, 2, 1, 2), True)])
def test_enumeration_on_each_side_of_the_memo(monkeypatch, mult, memo):
    # the memo serves families of _MEMO_VALUES values or more: one case
    # just below that and one at it, each against the filtered
    # arrangements, in tuples and in pieces of unequal widths
    assert len(mult) == core._MEMO_VALUES - 1 + memo
    built = []
    build = core._Memo.build
    monkeypatch.setattr(core._Memo, "build", lambda m, *a: built.append(a) or build(m, *a))
    want = [w for w in oracles.multiset_permutations(mult) if q.is_quasi_stirling(w)]
    assert list(q.enumerate_qs(mult)) == want
    unit = ["," + "x" * v for v in range(len(mult) + 1)]
    assert list(core._enumerate_qs(mult, unit)) == [",".join("x" * v for v in w) for w in want]
    assert bool(built) == memo


def test_memo_keys_counts_past_255(monkeypatch):
    # 300 copies of 1 do not fit the memo's bytes keys: the first words
    # with the memo, tuple-keyed, match those of the plain walk
    mult = (300, 1, 1, 1, 1, 2)
    built = []
    build = core._Memo.build
    monkeypatch.setattr(core._Memo, "build", lambda m, *a: built.append(a) or build(m, *a))
    digests = []
    for values in (core._MEMO_VALUES, len(mult) + 1):
        monkeypatch.setattr(core, "_MEMO_VALUES", values)
        digest = hashlib.sha256()
        for w in islice(q.enumerate_qs(mult), 10000):
            digest.update(bytes(w))
        digests.append(digest.digest())
    assert built and min(a[1][1] for a in built) > 255
    assert digests[0] == digests[1]


@pytest.mark.parametrize("mult", [(2,) * 6, (3, 2, 2, 2, 2, 2)])
def test_enumeration_across_memo_evictions(monkeypatch, mult):
    # a memo of a few hundred letters empties itself and builds its lists
    # again many times over: the words, in tuples and in pieces of unequal
    # widths, match those of the plain walk
    unit = ["," + "x" * v for v in range(len(mult) + 1)]
    built = []
    build = core._Memo.build
    monkeypatch.setattr(
        core._Memo, "build", lambda m, *a: built.append(bytes(a[0] + a[1])) or build(m, *a)
    )
    monkeypatch.setattr(core, "_MEMO_LETTERS", 300)
    runs = []
    for values in (core._MEMO_VALUES, len(mult) + 1):
        monkeypatch.setattr(core, "_MEMO_VALUES", values)
        runs.append((list(core._enumerate_qs(mult)), list(core._enumerate_qs(mult, unit))))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == q.qs_count(mult)
    assert len(built) > 2 * len(set(built))  # each state is built again


@pytest.mark.parametrize("mult", [(2,) * 6, (1, 3, 1, 1, 3, 2)])
def test_memo_builds_exactly_the_states_that_fit(monkeypatch, mult):
    # with _GROUP_LETTERS at 60, every state the memo is asked about is
    # built exactly when its completions, counted by the oracle, hold at
    # most 60 letters; the words match those of the plain walk
    asked, built = {}, set()
    group, build = core._Memo.group, core._Memo.build

    def ask(memo, stack, placed, rest):
        asked[bytes(stack + placed)] = (tuple(stack), tuple(placed), rest)
        return group(memo, stack, placed, rest)

    monkeypatch.setattr(core._Memo, "group", ask)
    monkeypatch.setattr(
        core._Memo, "build", lambda m, *a: built.add(bytes(a[0] + a[1])) or build(m, *a)
    )
    monkeypatch.setattr(core, "_GROUP_LETTERS", 60)
    words = list(core._enumerate_qs(mult))
    monkeypatch.setattr(core, "_MEMO_VALUES", len(mult) + 1)
    assert words == list(core._enumerate_qs(mult))
    count = lru_cache(oracles.state_completions)
    cap = (0,) + mult
    checked = 0
    for key, (stack, placed, rest) in asked.items():
        if rest > 8:  # at least rest completions of rest letters each
            assert key not in built
            continue
        left = tuple(cap[v] - placed[v] for v in stack)
        copies = tuple(c for c, p in zip(cap[1:], placed[1:]) if not p)
        assert len(copies) == 2 and sum(left + copies) == rest
        assert (key in built) == (count(left, copies) * rest <= 60), (stack, placed)
        checked += 1
    assert built and checked > len(built)


@pytest.mark.parametrize("text", [False, True])
def test_enumeration_memory_stays_linear(text):
    # the first words of a 5,000-letter family: a prefix kept per depth
    # would take about K^2 / 2 pointers, some 100 MB
    mult = (4998, 1, 1)
    unit = ["%d," % v for v in range(4)]
    tracemalloc.start()
    try:
        words = core._enumerate_qs(mult, unit) if text else q.enumerate_qs(mult)
        first = list(islice(words, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == 3 and peak < 1 << 20


def test_enumeration_memo_stays_bounded(monkeypatch):
    # (3,2,2,2,2,2) meets many distinct states with two fresh values:
    # kept whole, their completions take some 4 to 5 MB here
    mult = (3, 2, 2, 2, 2, 2)
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=len))
    assert cli.run(["count", "--mult", "1"]) == 0  # the parser is built once
    tracemalloc.start()
    try:
        assert sum(1 for _ in q.enumerate_qs(mult)) == 154440
        library = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert cli.run(["enumerate", "--mult", "3,2,2,2,2,2"]) == 0
        command = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert library < 2 << 20 and command < 2 << 20


def test_entry_points_take_a_multiplicity_tuple():
    spec = q.MultisetSpec((2, 2))
    assert list(q.enumerate_qs((2, 2))) == list(q.enumerate_qs(spec))
    assert q.qs_count((2, 2)) == q.qs_count(spec) == 4
    assert q.qs_polynomial((2, 2)) == q.qs_polynomial(spec)
    assert list(q.enumerate_trees((2, 2))) == list(q.enumerate_trees(spec))
    assert q.flattened_spec((2, 2)) == q.MultisetSpec((3, 1))
    assert q.validate_tree((0, ((1, ()),)), (1,))
    for fn in (q.enumerate_qs, q.qs_count, q.qs_polynomial, q.enumerate_trees):
        with pytest.raises(ValueError, match=">= 1"):
            fn((2, 0))  # raised at the call, before any word is drawn


def test_enumerate_qs_empty_spec():
    assert list(q.enumerate_qs(q.MultisetSpec(()))) == [()]
    assert list(q.enumerate_qs(())) == [()]
    assert q.qs_count(q.MultisetSpec(())) == 1


def test_qs_count_large_single_value():
    # one value repeated K times has one word; no K-digit factorials
    start = time.perf_counter()
    assert q.qs_count(q.MultisetSpec((400000,))) == 1
    assert time.perf_counter() - start < 1.0


def test_complement():
    assert q.complement((1, 3, 1, 2), 3) == (3, 1, 3, 2)
    assert q.complement((1,), 1) == (1,)
    assert q.complement((1, 2, 2, 1), 2) == (2, 1, 1, 2)
    with pytest.raises(ValueError):
        q.complement((1, 4), 3)
    with pytest.raises(ValueError):
        q.complement((0, 1), 3)
    # 2.5 gave (2.5, 1.5, 2.5): not a word
    for word, n in [((1, 2, 1), 2.5), ((1, 2, 1), 2.0), ((1.0, 2), 2)]:
        with pytest.raises(ValueError, match="must be integers"):
            q.complement(word, n)


def test_complement_swaps_statistics_and_keeps_families():
    for mult in sweeps.all_mults(5):
        n = len(mult)
        for w in oracles.multiset_permutations(mult):
            c = q.complement(w, n)
            sw, sc = q.stats(w), q.stats(c)
            assert (sw.asc, sw.des, sw.plat) == (sc.des, sc.asc, sc.plat)
            assert q.is_quasi_stirling(w) == q.is_quasi_stirling(c)
            assert q.complement(c, n) == w


def test_qs_polynomial_examples():
    P = q.PolyTUV.monomial
    assert q.qs_polynomial(q.MultisetSpec((2, 2))) == (
        2 * P(2, 2, 1) + P(1, 2, 2) + P(2, 1, 2)
    )
    assert q.qs_polynomial(q.MultisetSpec((2, 1))) == (
        P(1, 2, 1) + P(2, 2, 0) + P(2, 1, 1)
    )
    assert q.qs_polynomial(q.MultisetSpec((1,))) == P(1, 1, 0)


def test_qs_polynomial_counts_family():
    for mult in sweeps.all_mults(6):
        poly = q.qs_polynomial(q.MultisetSpec(mult))
        assert poly.value_at(1, 1, 1) == len(sweeps.qs_words(mult))
        assert poly.is_integral()

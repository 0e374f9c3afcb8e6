"""Words, statistics, recognizers and enumeration, checked against the
definitional oracles."""

import hashlib
import sys
import time
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import chain, islice, product
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


def test_quasi_stirling_scan_matches_the_oracle_on_words_with_gaps():
    # the one-loop scan closes the values above a repeat; every word of
    # length <= 7 over 1..4, gaps and all, and words of other hashables
    words = [(), ("a", "b", "a", "b"), ("a", "b", "b", "a"), (1, 2.5, 1, 2.5)]
    for length in range(1, 8):
        words.extend(product(range(1, 5), repeat=length))
    for w in words:
        assert q.is_quasi_stirling(w) == oracles.quartic_quasi_stirling(w), w


def _outcome(fn, *args):
    """repr of what fn returns, or the text of the ValueError it raises."""
    try:
        return repr(fn(*args))
    except ValueError as e:
        return "ValueError: %s" % e


def test_word_functions_read_a_one_shot_iterator_as_its_tuple():
    # each public function that takes a word reads it once, so iter(w)
    # gets the answer tuple(w) gets, right or refused
    words = [(), (0,), (1, 3), (2, 1, 2), (1, 2, 1, 2), (-1, 1)]
    for mult in sweeps.all_mults(4):
        words += oracles.multiset_permutations(mult)
    one_arg = (
        q.stats, q.is_quasi_stirling, q.is_stirling, q.word_to_text, q.word_spec,
        q.phi_inv, q.big_phi, q.max_descent_decompose, q.zeta_inv, q.chi, q.delta,
    )
    answered = 0
    for w in map(tuple, words):
        mult = tuple(Counter(w)[v] for v in range(1, max(w, default=0) + 1))
        valid = w and min(w) > 0 and all(mult)  # a word over the multiset mult
        target = mult[::-1] if valid else (1,)
        calls = [(fn, w) for fn in one_arg] + [
            (q.complement, w, max(w, default=1)),
            (q.transport, w, target),
            (q.big_phi_inv, w, target),
        ]
        if valid and q.is_quasi_stirling(w):
            calls.append((q.big_phi_inv, q.big_phi(w), mult))  # flattened, mapped back
        for fn, word, *rest in calls:
            want = _outcome(fn, word, *rest)
            assert _outcome(fn, iter(word), *rest) == want, (fn.__name__, word)
            answered += not want.startswith("ValueError")
    assert answered > 1000


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
        text = "\n".join(core._enumerate_qs(mult, unit, "\n"))
        assert text.split("\n") == want, mult


@pytest.mark.parametrize("sep", ["\n", '", "'])
def test_text_chunks_are_the_words_joined(monkeypatch, sep):
    # given a separator, the text search yields the words in chunks of
    # whole words, each of at most _CHUNK characters unless it is two
    # words: joined by it, the chunks are the tuple words joined by it
    def chunks_and_words(mult, limit=None):
        unit = ["," + "x" * v for v in range(len(mult) + 1)]
        chunks = list(islice(core._enumerate_qs(mult, unit, sep), limit))
        text = sep.join(chunks)
        tuples = islice(q.enumerate_qs(mult), text.count(sep) + 1)
        words = [",".join("x" * v for v in w) for w in tuples]
        assert text == sep.join(words), mult
        assert max(map(len, chunks)) <= max(core._CHUNK, 2 * len(words[0]) + len(sep)), mult
        return len(chunks), len(words)

    # (60,60): a state with one fresh value has more words than a chunk
    # holds, and hands them over one at a time
    for mult in sweeps.all_mults(7) + [(60, 60)]:
        assert chunks_and_words(mult)[1] == q.qs_count(mult)
    chunks, words = chunks_and_words((1, 3, 1, 1, 3, 2))
    assert words == q.qs_count((1, 3, 1, 1, 3, 2)) > 40 * chunks
    # the first chunks of a family whose memo keys are tuples
    chunks, words = chunks_and_words((300, 1, 1, 1, 1, 2), 2000)
    assert chunks == 2000 < words
    # words of some 7,400 characters: two to a chunk
    chunks, words = chunks_and_words((1,) * 120, 100)
    assert chunks == 100 < words
    # a memo that empties itself many times over
    monkeypatch.setattr(core, "_MEMO_CHARS", 300)
    chunks, words = chunks_and_words((2,) * 6)
    assert chunks < words == q.qs_count((2,) * 6)


def recorded_memo(monkeypatch):
    """The (key, string) pairs that the memos of the enumerations run
    from here on keep, in the order they keep them."""
    kept = []

    class Recorder(core._Memo):
        def __setitem__(self, key, s):
            kept.append((key, s))
            super().__setitem__(key, s)

    monkeypatch.setattr(core, "_Memo", Recorder)
    return kept


def check_state(count, cap, stack, placed, completions):
    """The completions of the state (stack, placed) are its arrangements
    in lex order that close the open values and use the fresh ones: as
    many as the oracle counts, each a quasi-Stirling word after the open
    values in stack order, which is all that the placed letters leave."""
    left = tuple(cap[v] - placed[v] for v in stack)
    copies = tuple(c for c, p in zip(cap[1:], placed[1:]) if not p)
    owed = Counter({v: cap[v] - placed[v] for v in range(1, len(cap))})
    assert len(completions) == count(left, copies), (stack, placed)
    assert all(a < b for a, b in zip(completions, completions[1:]))
    for r in completions:
        assert Counter(r) == owed and q.is_quasi_stirling(tuple(stack) + tuple(r))
    return len(copies)


def test_memo_strings_hold_each_states_completions(monkeypatch):
    # every string that the memo keeps, for every family with K <= 7,
    # holds the completions of its state, which the key spells. The memo
    # builds the states with two fresh values or more, each f of them
    # from 2 to 6, and here keeps every one it builds
    kept = recorded_memo(monkeypatch)
    monkeypatch.setattr(core, "_MEMO_SMALL", 1 << 20)
    count = lru_cache(oracles.state_completions)
    fs = set()
    for mult in sweeps.all_mults(7):
        n = len(mult)
        kept.clear()
        assert sum(1 for _ in q.enumerate_qs(mult)) == q.qs_count(mult)
        for key, s in kept:
            stack, placed = key[: -(n + 1)], key[-(n + 1) :]
            fs.add(check_state(count, (0,) + mult, stack, placed, s.split(b"\0")))
    assert fs == {2, 3, 4, 5, 6}


def test_forced_completions_of_one_fresh_value(monkeypatch):
    # every state with one fresh value and some value open, met as a
    # prefix of a word of a family with K <= 7: handed over one word at a
    # time, as when its words do not fit a chunk, the block placed in the
    # tail spells its completions
    count = lru_cache(oracles.state_completions)
    units = [bytes((v,)) for v in range(8)]
    seen = 0
    for mult in sweeps.all_mults(7):
        cap = (0,) + mult
        states = set()
        for w in sweeps.qs_words(mult):
            stack, placed = [], [0] * len(cap)
            for v in w:
                if not placed[v]:
                    stack.append(v)
                placed[v] += 1
                if placed[v] == cap[v]:
                    stack.remove(v)
                if placed.count(0) == 2 and stack:  # placed[0] stays 0
                    states.add((tuple(stack), tuple(placed)))
        for stack, placed in states:
            f = placed.index(0, 1)
            forced = list(core._forced(cap, units, list(stack), list(placed), f, b""))
            assert check_state(count, cap, stack, placed, forced) == 1
        seen += len(states)
    assert seen > 1000
    # in a chunk, such a state is spelled from the end of its tail: with
    # chunks of two words, every tail of two letters or more is handed
    # over one word at a time instead, and the words are the same
    monkeypatch.setattr(core, "_CHUNK", 1)
    for mult in sweeps.all_mults(7):
        assert tuple(q.enumerate_qs(mult)) == sweeps.qs_words(mult), mult


@pytest.mark.parametrize("mult", [(2, 2, 1, 1, 1, 1), (2,) * 6, (3, 2, 2, 2, 2, 2)])
def test_enumeration_across_memo_evictions(monkeypatch, mult):
    # a memo of a few hundred characters empties itself and builds its
    # states again many times over: the words, in tuples and in pieces of
    # unequal widths, match those of the walk with two words a chunk and
    # a memo that keeps nothing, and at K = 8 the filtered arrangements
    unit = ["," + "x" * v for v in range(len(mult) + 1)]
    kept = recorded_memo(monkeypatch)
    monkeypatch.setattr(core, "_MEMO_CHARS", 300)
    words = list(core._enumerate_qs(mult))
    text = "\n".join(core._enumerate_qs(mult, unit, "\n"))
    built = [key for key, _ in kept]
    assert len(built) > 2 * len(set(built))  # each state is built again
    monkeypatch.setattr(core, "_CHUNK", 1)
    monkeypatch.setattr(core, "_MEMO_SMALL", -1)
    kept.clear()
    assert list(core._enumerate_qs(mult)) == words
    assert "\n".join(core._enumerate_qs(mult, unit, "\n")) == text
    assert not kept and len(words) == q.qs_count(mult)
    assert text == "\n".join(",".join("x" * v for v in w) for w in words)
    if sum(mult) == 8:
        filtered = oracles.multiset_permutations(mult)
        assert words == [w for w in filtered if q.is_quasi_stirling(w)]


def test_memo_keys_counts_past_255(monkeypatch):
    # 300 copies of 1 do not fit the memo's bytes keys: the first words,
    # with states built under tuple keys, match those of the walk with
    # two words a chunk and a memo that keeps nothing
    mult = (300, 1, 1, 1, 1, 2)
    kept = recorded_memo(monkeypatch)
    digests = []
    for chunk, small in ((core._CHUNK, core._MEMO_SMALL), (1, -1)):
        monkeypatch.setattr(core, "_CHUNK", chunk)
        monkeypatch.setattr(core, "_MEMO_SMALL", small)
        digest = hashlib.sha256()
        for w in islice(q.enumerate_qs(mult), 10000):
            digest.update(bytes(w))
        digests.append(digest.digest())
        if chunk > 1:
            assert kept and all(type(key) is tuple and key[-6] > 255 for key, _ in kept)
            kept.clear()
    assert not kept and digests[0] == digests[1]


def test_tuple_words_of_values_past_255(monkeypatch):
    # a value past 255 does not fit a byte, so the tuple words are
    # written as characters and read back by ord: the first words match
    # the text words and those of the walk with two words a chunk, in lex
    # order, each a quasi-Stirling arrangement of the multiset
    for mult in [(1,) * 300, (2,) + (1,) * 299 + (3,)]:
        unit = [",%d" % v for v in range(len(mult) + 1)]
        first = list(islice(q.enumerate_qs(mult), 3000))
        chunks = core._enumerate_qs(mult, unit, "\n")
        texts = chain.from_iterable(c.split("\n") for c in chunks)
        assert list(islice(texts, 3000)) == list(map(q.word_to_text, first))
        want = Counter(dict(enumerate(mult, 1)))
        assert all(a < b for a, b in zip(first, first[1:]))
        assert all(Counter(w) == want and q.is_quasi_stirling(w) for w in first)
        monkeypatch.setattr(core, "_CHUNK", 1)
        assert list(islice(q.enumerate_qs(mult), 3000)) == first
        monkeypatch.undo()
    # no character is 0x110000 or more: such a family is refused at the call
    with pytest.raises(ValueError, match="too many to enumerate as tuples"):
        core._enumerate_qs((1,) * 0x110000)


@pytest.mark.parametrize("text", [False, True])
def test_enumeration_memory_stays_linear(text):
    # the first words of a 5,000-letter family: a prefix kept per depth
    # would take about K^2 / 2 pointers, some 100 MB
    mult = (4998, 1, 1)
    unit = ["%d," % v for v in range(4)]
    tracemalloc.start()
    try:
        words = core._enumerate_qs(mult, unit, "\n") if text else q.enumerate_qs(mult)
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
    assert cli.run(["count", "--mult", "1"]) == 0  # one-time costs fall outside the trace
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


def test_enumerate_command_memory_on_a_counting_family(monkeypatch):
    # a family of the kind the benchmark enumerates: the command's traced
    # peak, its memo and its write blocks included, stays under 768 KB
    # (about 370 KB here; 525 KB when the memo held per-letter lists)
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=len))
    assert cli.run(["count", "--mult", "1"]) == 0  # one-time costs fall outside the trace
    tracemalloc.start()
    try:
        assert cli.run(["enumerate", "--mult", "1,3,1,1,3,2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 768 << 10


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


def test_qs_polynomial_copies_the_shared_counts():
    # every call counts the words once, in core._family_counts, and hands
    # out a fresh polynomial: editing one result leaves the next unchanged
    spec = q.MultisetSpec((2, 1))
    first = q.qs_polynomial(spec)
    want = dict(first.terms)
    first.terms[(99, 0, 0)] = 1
    first.terms.clear()
    assert q.qs_polynomial((2, 1)).terms == want
    # a refused input is never stored
    held = core._family_counts.cache_info().currsize
    for bad in [(0, 1), (1.5,), ("1",)]:
        with pytest.raises(ValueError):
            q.qs_polynomial(bad)
    assert core._family_counts.cache_info().currsize == held


def test_qs_polynomial_counts_family():
    for mult in sweeps.all_mults(6):
        poly = q.qs_polynomial(q.MultisetSpec(mult))
        assert poly.value_at(1, 1, 1) == len(sweeps.qs_words(mult))
        assert poly.is_integral()

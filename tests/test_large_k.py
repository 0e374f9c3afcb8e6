"""Every map at sizes far past the exhaustive sweeps: K = 10^4 words, the
flattening at its most expensive profile and on a nested word of depth
4000, a tree of depth 4000 through the command line, and one-word
families of 1200 letters. Words come from the seeded generator in
`oracles`; statistics are checked against the oracle's padded count."""

from collections import Counter

import pytest

import qstirling as q
from qstirling import bijections, cli

import oracles
import sweeps

BIG_K = 10_000
# n = 2000 values with three repeated ones low down: the root of the
# tree carries about 2000 subtrees, but flattening takes 150 psi steps
LOW_STEP = (BIG_K - 2000 + 1 - 100, 51, 51) + (1,) * 1997
# few values, so that both this and its reversal flatten in ~10^4 steps
FEW_VALUES = (4000, 1000, 3000, 2000)
HIGH_K, HIGH_N = 2000, 400
HIGH = (1,) * (HIGH_N - 1) + (HIGH_K - HIGH_N + 1,)


def _mult(word):
    counts = Counter(word)
    return tuple(counts[v] for v in range(1, max(counts) + 1))


def _assert_image(image, source, mult):
    """image is a word over mult with the statistic triple of source."""
    assert _mult(image) == tuple(mult)
    assert q.is_quasi_stirling(image)
    assert oracles.sentinel_stats(image) == oracles.sentinel_stats(source)


@pytest.fixture(scope="module")
def low_word():
    # this seed drops the value 1 in early, so over a thousand values
    # end up as separate root subtrees: a long chain for any kernel that
    # recurses from one root subtree to the next
    w = oracles.random_quasi_stirling(LOW_STEP, seed=4)
    assert len(w) == BIG_K
    assert len(q.phi_inv(w)[1]) > 1000
    return w


def test_tree_word_round_trip_at_ten_thousand(low_word):
    t = q.phi_inv(low_word)
    assert q.validate_tree(t, q.MultisetSpec(LOW_STEP))
    asc, des, plat = oracles.sentinel_stats(low_word)
    assert q.tree_stats(t) == (des, asc, plat, low_word[0], low_word[-1])
    assert q.phi(t) == low_word


def test_flattening_round_trip_at_ten_thousand(low_word):
    flat = q.big_phi(low_word)
    _assert_image(flat, low_word, q.flattened_spec(q.MultisetSpec(LOW_STEP)).mult)
    assert q.big_phi_inv(flat, LOW_STEP) == low_word


def test_transport_round_trip_at_ten_thousand():
    w = oracles.random_quasi_stirling(FEW_VALUES, seed=2)
    assert len(w) == BIG_K
    back = FEW_VALUES[::-1]
    there = q.transport(w, back)
    _assert_image(there, w, back)
    assert q.transport(there, FEW_VALUES) == w


def test_high_profile_round_trips():
    # every extra copy sits on the largest value: (K - n)(n - 1) psi steps
    w = oracles.random_quasi_stirling(HIGH, seed=3)
    flat = q.big_phi(w)
    _assert_image(flat, w, HIGH[::-1])
    assert q.big_phi_inv(flat, HIGH) == w
    assert q.transport(w, HIGH[::-1]) == flat
    assert q.transport(flat, HIGH) == w


def _nested(n):
    return tuple(range(1, n + 1)) + tuple(range(n, 0, -1))


def test_flattening_round_trip_on_a_nested_word_of_four_thousand_letters():
    # n (n - 1) / 2 psi steps, each at the bottom of a chain 2n deep
    w = _nested(2000)
    flat = q.big_phi(w)
    _assert_image(flat, w, (2001,) + (1,) * 1999)
    assert q.big_phi_inv(flat, (2,) * 2000) == w


class _CountingList(list):
    """A list that counts the reads of its items."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_psi_runs_read_the_holders_less_than_k_squared_times(monkeypatch):
    # a run of equal psi steps walks up the tree once, not once per step
    word_tree = bijections._word_tree
    made = []

    def counted(w, mult):
        root, odd, up = word_tree(w, mult)
        made.append(_CountingList(up))
        return root, odd, made[-1]

    monkeypatch.setattr(bijections, "_word_tree", counted)
    w = _nested(200)
    k = len(w)
    assert q.big_phi_inv(q.big_phi(w), (2,) * 200) == w
    assert len(made) == 2
    assert all(0 < up.reads < k * k for up in made), [up.reads for up in made]


def test_psi_runs_read_the_odd_vertices_a_few_times_per_run(monkeypatch):
    # a run moves its case-2 steps as slices around its one case-1 step,
    # so it looks up odd[src] and odd[dst] a few times, not once per step
    word_tree = bijections._word_tree
    made = []

    def counted(w, mult):
        root, odd, up = word_tree(w, mult)
        made.append(_CountingList(odd))
        return root, made[-1], up

    monkeypatch.setattr(bijections, "_word_tree", counted)
    w = oracles.random_quasi_stirling(HIGH, seed=3)
    runs = len(bijections._shift_schedule(HIGH, HIGH[::-1]))
    steps = (HIGH_K - HIGH_N) * (HIGH_N - 1)
    assert q.big_phi_inv(q.big_phi(w), HIGH) == w
    assert len(made) == 2
    assert all(0 < odd.reads <= 10 * runs < steps for odd in made), [
        odd.reads for odd in made
    ]


def test_depth_4000_tree_through_the_cli(capsys):
    word = ",".join(map(str, list(range(1, 2001)) + list(range(2000, 0, -1))))
    assert cli.run(["map", "--which", "phi-inv", "--perm", word]) == 0
    tree = capsys.readouterr().out.strip()
    assert tree.startswith("0(1(1(2(2(3(3(") and tree.endswith("2000(2000" + ")" * 4000)
    assert cli.run(["map", "--which", "phi", "--tree", tree]) == 0
    assert capsys.readouterr().out.strip() == word


def test_one_word_families_of_1200_letters(capsys):
    word = (1,) * 1200
    assert list(q.enumerate_qs(q.MultisetSpec((1200,)))) == [word]
    assert cli.run(["enumerate", "--mult", "1200"]) == 0
    assert capsys.readouterr().out == ",".join(["1"] * 1200) + "\n"
    assert cli.run(["poly", "--mult", "1200"]) == 0
    assert capsys.readouterr().out == '[{"c": "1", "t": 1, "u": 1, "v": 1199}]\n'


def test_shift_schedule_matches_its_definition():
    # the runs to the flattened multiset are its flattening steps; back,
    # they are those steps undone in reverse; between two multisets,
    # the flattening of the first and then the second's undone
    def steps(runs):
        return [(src, dst) for src, dst, count in runs for _ in range(count)]

    mults = sweeps.all_mults(8)
    for mult in mults:
        flat = q.flattened_spec(mult).mult
        down = steps(bijections._shift_schedule(mult, flat))
        assert down == [(j, j - 1) for j in oracles.largest_repeat_schedule(mult)]
        up = steps(bijections._shift_schedule(flat, mult))
        assert up == [(dst, src) for src, dst in reversed(down)]
    small = [mult for mult in mults if sum(mult) <= 6]
    for a in small:
        for b in small:
            if (len(a), sum(a)) == (len(b), sum(b)):
                flat = q.flattened_spec(a).mult
                assert bijections._shift_schedule(a, b) == (
                    bijections._shift_schedule(a, flat) + bijections._shift_schedule(flat, b)
                )


def test_stirling_recognizer_on_a_nested_word_of_two_hundred_thousand_letters():
    n = 10**5
    nested = list(range(1, n + 1)) + list(range(n, 0, -1))
    assert q.is_stirling(nested)
    # swap k and k+1 in the first half: k now sits inside the span of k+1
    k = n // 2
    nested[k - 1], nested[k] = nested[k], nested[k - 1]
    assert not q.is_stirling(nested)

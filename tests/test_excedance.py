"""Partial injections, excedances, path-cycle notation and the two
word-to-injection bijections."""

from math import factorial

import pytest

import qstirling as q
from qstirling import verify
import oracles
import sweeps

SIGMA = q.PartialInj(11, (7, 8, 1, 6, 2, 9, 3, 11))
RENDERED = "<4,6,9><10><5,2,8,11>(1,7,3)"


def test_partial_inj_construction_and_wire():
    s = q.PartialInj(4, (4, 2))
    assert s.n == 4
    assert s.r == 2
    assert q.PartialInj.from_text("4:4,2") == s
    assert s.to_text() == "4:4,2"
    empty = q.PartialInj.from_text("3:")
    assert empty.values == ()
    assert empty.r == 3
    assert SIGMA.r == 3


@pytest.mark.parametrize(
    "n,values",
    [
        (3, (1, 2, 3)),  # r would be 0
        (3, (1, 1)),  # repeated value
        (3, (4, 1)),  # out of range
        (0, ()),  # empty codomain
        (3, (0,)),
        # not integers: (3, (2.0,)) wrote "3:2.0", which from_text
        # refuses, and chi_inv met a TypeError on a codomain of 3.0
        (3, (2.0,)),
        (3.0, (2,)),
        (3, ("2",)),
    ],
)
def test_partial_inj_rejects(n, values):
    with pytest.raises(ValueError):
        q.PartialInj(n, values)


def test_exc_examples():
    assert q.exc(SIGMA) == 5
    assert q.exc(q.PartialInj(4, (1, 2, 3))) == 0
    assert q.exc(q.PartialInj(2, (2,))) == 1
    assert q.exc(q.PartialInj(3, ())) == 0


def test_exc_matches_positional_oracle():
    for n in range(1, 6):
        for r in range(1, n + 1):
            for s in q.enumerate_J(n, r):
                assert q.exc(s) == oracles.positional_excedances(s.values)


def test_to_path_cycle_worked_example():
    rep = q.to_path_cycle(SIGMA)
    assert rep.paths == ((4, 6, 9), (10,), (5, 2, 8, 11))
    assert rep.cycles == ((1, 7, 3),)
    assert q.render_path_cycle(rep) == RENDERED
    assert q.from_path_cycle(rep) == SIGMA


def test_to_path_cycle_small():
    rep = q.to_path_cycle(q.PartialInj(2, (2,)))
    assert rep.paths == ((1, 2),) and rep.cycles == ()
    # pure permutation part plus the mandatory path
    rep = q.to_path_cycle(q.PartialInj(4, (2, 1, 3)))
    assert rep.paths == ((4,),)
    assert rep.cycles == ((3,), (1, 2))


def test_parse_render_round_trip():
    for text in [RENDERED, "<1>", "<3><1,4>(2)", "<2,5><4>(3)(1)"]:
        assert q.render_path_cycle(q.parse_path_cycle(text)) == text
    rep = q.parse_path_cycle(RENDERED)
    assert q.parse_path_cycle(q.render_path_cycle(rep)) == rep
    # the parser is purely about the text format; "" is the empty rep
    empty = q.parse_path_cycle("")
    assert empty.paths == () and empty.cycles == ()
    for bad in ["<1)(2>", "<>", "<1>x", "x<1>", "<1,>", "(1"]:
        with pytest.raises(ValueError):
            q.parse_path_cycle(bad)


def test_from_path_cycle_rejects():
    with pytest.raises(ValueError):
        q.from_path_cycle(q.PathCycleRep(paths=[], cycles=[(1, 2)]))  # no path
    with pytest.raises(ValueError):
        q.from_path_cycle(q.PathCycleRep(paths=[(1, 2), (2, 3)], cycles=[]))
    with pytest.raises(ValueError):
        q.from_path_cycle(q.PathCycleRep(paths=[(1, 3)], cycles=[]))  # 2 missing
    with pytest.raises(ValueError):
        # interior element beyond the domain length
        q.from_path_cycle(q.PathCycleRep(paths=[(3, 1, 2)], cycles=[]))
    for paths, cycles in [(((1.0, 3),), ((2,),)), (((3,),), ((1, 2.0),))]:
        with pytest.raises(ValueError, match="must be integers"):
            q.from_path_cycle(q.PathCycleRep(paths, cycles))


def test_round_trip_everywhere():
    for n in range(1, 7):
        for r in range(1, n + 1):
            for s in q.enumerate_J(n, r):
                rep = q.to_path_cycle(s)
                assert len(rep.paths) == r
                assert q.from_path_cycle(rep) == s
                text = q.render_path_cycle(rep)
                assert q.parse_path_cycle(text) == rep


def test_standard_form_conventions():
    for s in q.enumerate_J(5, 2):
        rep = q.to_path_cycle(s)
        # paths in increasing order of largest (= final) element
        finals = [p[-1] for p in rep.paths]
        assert finals == sorted(finals)
        assert all(max(p) == p[-1] for p in rep.paths)
        # cycles open at their smallest element, decreasing across cycles
        heads = [c[0] for c in rep.cycles]
        assert all(c[0] == min(c) for c in rep.cycles)
        assert heads == sorted(heads, reverse=True)


def test_enumerate_J_counts():
    assert len(list(q.enumerate_J(2, 1))) == 2
    assert len(list(q.enumerate_J(3, 1))) == 6
    assert len(list(q.enumerate_J(4, 2))) == 12
    for n in range(1, 6):
        for r in range(1, n + 1):
            items = list(q.enumerate_J(n, r))
            assert len(items) == factorial(n) // factorial(r)
            assert len(set(items)) == len(items)
            values = [s.values for s in items]
            assert values == sorted(values)


def test_enumerate_J_rejects_at_the_call():
    for n, r in ((3, 0), (2, 3)):
        with pytest.raises(ValueError, match="1 <= r <= n"):
            q.enumerate_J(n, r)
    for n, r in ((3.0, 1), (3, 1.0), ("3", 1)):
        with pytest.raises(ValueError, match="must be integers"):
            q.enumerate_J(n, r)


# -- chi ---------------------------------------------------------------


def test_chi_worked_example():
    w = (4, 6, 9, 9, 5, 2, 8, 9, 1, 7, 3)
    s = q.chi(w)
    assert s == SIGMA
    assert q.render_path_cycle(q.to_path_cycle(s)) == RENDERED
    assert q.stats(w).asc == q.exc(s) + 1 == 6
    assert q.chi_inv(s) == w


def test_chi_boundary():
    # single-value words map to the empty-domain injection
    for m in range(1, 5):
        s = q.chi((1,) * m)
        assert s.values == ()
        assert s.n == m
        assert q.exc(s) == 0
        assert q.chi_inv(s) == (1,) * m


def test_chi_rejects():
    with pytest.raises(ValueError):
        q.chi((1, 1, 2))  # repeated value must be the largest
    with pytest.raises(ValueError):
        q.chi((2, 1, 2, 1))  # wrong multiset shape entirely


def test_one_repeated_value_is_always_quasi_stirling():
    # a crossing a b a b needs two repeated values, so chi, delta and
    # max_descent_decompose need no quasi-Stirling check of their own
    for K in range(1, 8):
        for n in range(1, K + 1):
            rest = (1,) * (n - 1)
            for mult in {(K - n + 1,) + rest, rest + (K - n + 1,)}:
                words = oracles.multiset_permutations(mult)
                assert all(map(oracles.quartic_quasi_stirling, words))


def _recoding_check(name, forward, inverse, stat, mult, m):
    """verify's bijection loop over one case: `forward` from the words
    over mult onto J_{K,m}, the word's `stat` being the excedances plus
    one."""
    K = sum(mult)
    return verify._check_bijection(name, [(
        sweeps.qs_words(mult),
        forward,
        inverse,
        set(q.enumerate_J(K, m)),
        lambda w, s: getattr(q.stats(w), stat) == q.exc(s) + 1,
        q.word_to_text,
        "J_{%d,%d}" % (K, m),
    )])


def test_chi_bijection_with_ascents():
    for n in range(1, 8):
        for m in range(1, 9 - n):
            mult = (1,) * (n - 1) + (m,)
            assert _recoding_check("chi", q.chi, q.chi_inv, "asc", mult, m) == (
                factorial(n + m - 1) // factorial(m),
                [],
            )


# -- delta -------------------------------------------------------------


def test_delta_worked_example():
    w = (1, 3, 1, 2)
    s = q.delta(w)
    assert s == q.PartialInj(4, (4, 2))
    assert q.render_path_cycle(q.to_path_cycle(s)) == "<3><1,4>(2)"
    assert q.exc(s) == 1
    assert q.stats(w).des == q.exc(s) + 1 == 2
    assert q.delta_inv(s) == w


def test_delta_boundary():
    s = q.delta((1,))
    assert s.values == () and s.n == 1
    assert q.delta_inv(s) == (1,)


def test_delta_bijection_with_descents():
    for n in range(1, 8):
        for m in range(1, 9 - n):
            mult = (m,) + (1,) * (n - 1)
            assert _recoding_check("delta", q.delta, q.delta_inv, "des", mult, m) == (
                factorial(n + m - 1) // factorial(m),
                [],
            )

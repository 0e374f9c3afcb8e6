"""The tree/word correspondence, the multiplicity-shift maps, flattening,
transport, the max-descent decomposition and the tuple fold."""

from math import comb, factorial

import pytest

import qstirling as q
import sweeps
from qstirling import bijections, verify

FIGURE_WORD = (2, 7, 4, 7, 5, 6, 3, 3, 5, 1, 5)
FIGURE_TREE = "0(2,7(7(4)),5(5(6,3(3)),5(1)))"


# -- phi ---------------------------------------------------------------


def test_phi_examples():
    assert q.phi(q.parse_tree("0(2(2),1)")) == (2, 2, 1)
    assert q.phi(q.parse_tree("0(1)")) == (1,)
    assert q.phi(q.parse_tree(FIGURE_TREE)) == FIGURE_WORD


def test_phi_inv_examples():
    assert q.render_tree(q.phi_inv((2, 2, 1))) == "0(2(2),1)"
    assert q.render_tree(q.phi_inv((1,))) == "0(1)"
    t = q.phi_inv(FIGURE_WORD)
    assert q.render_tree(t) == FIGURE_TREE
    assert q.validate_tree(t, q.MultisetSpec((1, 1, 2, 1, 3, 1, 2)))


WORD_MAPS = [
    (q.phi_inv, (2, 1, 1, 2, 3), ()),
    (q.big_phi, (2, 2, 1, 3, 3), ()),
    (q.big_phi_inv, (1, 2, 1, 1), ((2, 2),)),
    (q.transport, (2, 2, 1, 3, 3), ((1, 2, 2),)),
    (q.chi, (1, 3, 2, 3), ()),
    (q.delta, (2, 1, 3, 1), ()),
    (q.zeta_inv, (2, 1, 3, 1), ()),
    (q.max_descent_decompose, (2, 1, 3, 1), ()),
]


@pytest.mark.parametrize(
    "fn, word, rest", WORD_MAPS, ids=[fn.__name__ for fn, _, _ in WORD_MAPS]
)
def test_word_maps_read_any_sequence_of_integers(fn, word, rest):
    # each map reads its word once, through bijections._checked_word
    # (phi_inv, big_phi, big_phi_inv, transport) or core._flat_word (the
    # others), and its kernel gets those ints: a list, a generator, and
    # True in place of 1 give what the tuple gives, down to the class of
    # every label
    expected = repr(fn(word, *rest))
    for given in (
        list(word),
        (v for v in word),
        tuple(True if v == 1 else v for v in word),
    ):
        assert repr(fn(given, *rest)) == expected


def test_phi_rejects_invalid():
    with pytest.raises(ValueError):
        q.phi(q.parse_tree("0(1(2),2(1))"))
    with pytest.raises(ValueError):
        q.phi_inv((1, 2, 1, 2))
    assert q.phi((0, ())) == ()
    assert q.phi_inv(()) == (0, ())


# -- psi ---------------------------------------------------------------


def test_psi_examples():
    assert q.render_tree(q.psi(q.parse_tree("0(1,2(2))"), 2)) == "0(1(1),2)"
    assert q.render_tree(q.psi(q.parse_tree("0(2(2),1)"), 2)) == "0(2,1(1))"
    assert q.render_tree(q.psi_inv(q.parse_tree("0(1(1),2)"), 2)) == "0(1,2(2))"
    assert q.render_tree(q.psi_inv(q.parse_tree("0(2,1(1))"), 2)) == "0(2(2),1)"


def test_psi_case_one_examples():
    # the odd vertex j-1 lies below the moved even vertex: with the
    # rotation when it is a child of that vertex, without when deeper
    cases = [
        (q.psi, "0(2(2(3,1)))", "0(1(1(2,3)))"),
        (q.psi, "0(2(2(3(3(1)))))", "0(1(1(3(3(2)))))"),
        (q.psi_inv, "0(1(1(3,2)))", "0(2(2(1,3)))"),
        (q.psi_inv, "0(1(1(3(3(2)))))", "0(2(2(3(3(1)))))"),
    ]
    for f, tree, image in cases:
        assert q.render_tree(f(q.parse_tree(tree), 2)) == image


def test_psi_step_undone_by_the_exchanged_step():
    # a step (src, dst) followed by (dst, src) restores the list tree and
    # the very vertex objects in both indexes
    cases = 0
    for mult in sweeps.all_mults(6):
        for w in sweeps.qs_words(mult):
            for j in range(2, len(mult) + 1):
                for src, dst in ((j, j - 1), (j - 1, j)):
                    if mult[src - 1] < 2:
                        continue
                    root, odd, up = bijections._word_tree(w, mult)
                    before = repr(root), list(map(id, odd)), list(map(id, up))
                    bijections._psi_step(odd, up, src, dst)
                    bijections._psi_step(odd, up, dst, src)
                    assert (repr(root), list(map(id, odd)), list(map(id, up))) == before
                    cases += 1
    assert cases == 7228


def _vertices(root):
    """Every [label, children] list of a list tree, in preorder."""
    out = []
    stack = [root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(v[1]))
    return out


def test_psi_run_equals_its_single_steps():
    # a run of count steps moves its case-2 steps as slices: it must
    # leave the very tree, vertex objects and indexes that count single
    # steps leave, matched vertex by vertex across two copies of the tree
    cases = 0
    for mult in sweeps.all_mults(6):
        for w in sweeps.qs_words(mult):
            for j in range(2, len(mult) + 1):
                for src, dst in ((j, j - 1), (j - 1, j)):
                    for count in range(2, mult[src - 1]):
                        steps = bijections._word_tree(w, mult)
                        run = bijections._word_tree(w, mult)
                        match = {
                            id(a): b
                            for a, b in zip(_vertices(steps[0]), _vertices(run[0]))
                        }
                        for _ in range(count):
                            bijections._psi_step(steps[1], steps[2], src, dst)
                        bijections._psi_step(run[1], run[2], src, dst, count)
                        assert repr(steps[0]) == repr(run[0])
                        for a, b in zip(_vertices(steps[0]), _vertices(run[0])):
                            assert match[id(a)] is b
                        for index in (1, 2):
                            for a, b in zip(steps[index][1:], run[index][1:]):
                                assert match[id(a)] is b
                        cases += 1
    assert cases == 1390


def test_psi_rejects():
    t = q.parse_tree("0(1,2(2))")
    with pytest.raises(ValueError):
        q.psi(t, 1)  # j must be at least 2
    with pytest.raises(ValueError):
        q.psi(t, 3)  # out of range
    with pytest.raises(ValueError):
        q.psi(q.parse_tree("0(1,2)"), 2)  # multiplicity of 2 is only 1
    with pytest.raises(ValueError):
        q.psi_inv(q.parse_tree("0(1,2(2))"), 2)  # needs multiplicity >= 2 at j-1
    # 2.0 met a TypeError and 2.5 was reported as "got 2"
    for fn, tree in [(q.psi, t), (q.psi_inv, q.parse_tree("0(1(1),2)"))]:
        for j in (2.0, 2.5, "2"):
            with pytest.raises(ValueError, match="j must be an integer"):
                fn(tree, j)


def test_psi_round_trip_and_statistics_small():
    # psi on trees through verify's bijection loop: each image lies in
    # the shifted family and keeps (cdes, casc, eleaf), psi_inv undoes
    # it, and the images cover the family
    def cases():
        for mult in sweeps.all_mults(6):
            # thm23's shifts: the run (j, j - 1, 1) moves a copy of j to j - 1
            for [(j, _, _)], target, _, _, over in verify._single_shifts(q.MultisetSpec(mult)):
                yield (
                    q.enumerate_trees(mult),
                    lambda t: q.psi(t, j),
                    lambda t: q.psi_inv(t, j),
                    set(q.enumerate_trees(target)),
                    lambda t, t2: q.tree_stats(t)[:3] == q.tree_stats(t2)[:3],
                    q.render_tree,
                    over,
                )

    assert verify._check_bijection("psi", cases()) == (3614, [])


# -- big_psi / big_phi -------------------------------------------------


def test_big_psi_examples():
    assert q.render_tree(q.big_psi(q.parse_tree("0(2(2),1)"))) == "0(2,1(1))"
    for t in q.enumerate_trees(q.MultisetSpec((2, 1))):
        assert q.big_psi(t) == t


def test_big_psi_lands_on_flattened_multiset():
    for mult in sweeps.all_mults(6):
        spec = q.MultisetSpec(mult)
        flat = q.flattened_spec(spec)
        assert flat.mult == (spec.K - spec.n + 1,) + (1,) * (spec.n - 1)
        for t in q.enumerate_trees(spec):
            t2 = q.big_psi(t)
            assert q.validate_tree(t2, flat)
            assert q.tree_stats(t)[:3] == q.tree_stats(t2)[:3]


def test_big_phi_examples():
    assert q.big_phi((2, 2, 1)) == (2, 1, 1)
    for w in sweeps.qs_words((3, 1, 1)):
        assert q.big_phi(w) == w
    with pytest.raises(ValueError):
        q.big_phi((1, 2, 1, 2))


def test_big_phi_inv_rejects_wrong_shape():
    with pytest.raises(ValueError):
        q.big_phi_inv((1, 2, 2, 1), q.MultisetSpec((2, 2)))  # flat form would be (3, 1)
    with pytest.raises(ValueError):
        q.big_phi_inv((2, 1, 1), q.MultisetSpec((1, 1)))  # (n, K) mismatch


def test_word_maps_make_the_transport_calls_thm11_checks(monkeypatch):
    # big_phi, big_phi_inv and transport are each a check plus the one
    # _transport call that thm11 runs: a wrapper that forks its own
    # schedule, or runs it in another order, fails here
    calls = []
    real = bijections._transport

    def spy(w, mult, runs):
        calls.append((w, mult, list(runs)))
        return real(w, mult, runs)

    monkeypatch.setattr(bijections, "_transport", spy)
    for mult in sweeps.all_mults(5):
        spec = q.MultisetSpec(mult)
        flat = q.flattened_spec(spec)
        calls.clear()
        assert verify.thm11([spec]) == (len(sweeps.qs_words(mult)), [])
        checked = calls[:]
        calls.clear()
        for w in sweeps.qs_words(mult):
            q.big_phi_inv(q.big_phi(w), spec)
        assert calls == checked, spec  # forward, then inverse, per word
        for w in sweeps.qs_words(mult):
            calls.clear()
            q.transport(w, flat)
            q.big_phi(w)
            assert calls[0] == calls[1], w


# -- transport ---------------------------------------------------------


def test_transport_frozen_example():
    out = q.transport((1, 2, 2, 1), q.MultisetSpec((1, 3)))
    assert out == (2, 2, 1, 2)
    assert q.stats(out) == q.stats((1, 2, 2, 1))
    assert q.word_spec(out).mult == (1, 3)


def test_transport_identity_and_errors():
    assert q.transport((1, 1, 1), q.MultisetSpec((3,))) == (1, 1, 1)
    with pytest.raises(ValueError):
        q.transport((1, 2, 2, 1), q.MultisetSpec((1, 1, 2)))  # K matches, n does not
    with pytest.raises(ValueError):
        q.transport((1, 2, 2, 1), q.MultisetSpec((1, 2)))  # K mismatch


def test_transport_is_statistic_preserving_bijection():
    # transport onto two targets of each (K, n) through verify's
    # bijection loop: each image lies in the target family and keeps the
    # statistics, transport back to the source multiset undoes it, and
    # the images cover the family
    def cases():
        for K in range(2, 7):
            for n in range(1, 4):
                specs = [q.MultisetSpec(m) for m in sweeps.compositions(K) if len(m) == n]
                for target in specs[:2]:
                    for spec in specs:
                        yield (
                            sweeps.qs_words(spec.mult),
                            lambda w: q.transport(w, target),
                            lambda w: q.transport(w, spec),
                            set(sweeps.qs_words(target.mult)),
                            lambda w, w2: q.stats(w) == q.stats(w2),
                            q.word_to_text,
                            "%s from %s" % (target.to_text(), spec.to_text()),
                        )

    assert verify._check_bijection("transport", cases()) == (1061, [])


def test_suite_catches_a_skipped_rotation(monkeypatch):
    # case 1 of the psi steps leaves the special child where it was
    monkeypatch.setattr(bijections, "_rotate_to_front_order", lambda ys, pos: ys)
    ok, report = verify.verify_suite(5)
    counts = {
        entry["name"]: (entry["cases"], entry.get("failure_count", 0))
        for entry in report["checks"]
    }
    assert not ok
    assert (counts["thm23"], counts["thm11"]) == ((350, 52), (591, 34))


# -- max_descent_decompose ---------------------------------------------


def test_max_descent_decompose_examples():
    assert q.max_descent_decompose((3, 1, 1, 2, 1)) == ((3,), (), (2,))
    assert q.max_descent_decompose((1,)) == ((),)
    assert q.max_descent_decompose((2, 1, 1)) == ((2,), ())


def test_max_descent_decompose_rejects():
    with pytest.raises(ValueError):
        q.max_descent_decompose((1, 2, 2, 1))  # multiset not of the flat shape
    with pytest.raises(ValueError):
        q.max_descent_decompose((1, 2, 3))  # des = 1, not n
    with pytest.raises(ValueError):
        q.max_descent_decompose((2, 3, 1, 1, 1))  # des = 2, not n = 3


def test_max_descent_words_count_and_reassembly():
    for n in range(1, 9):
        for m in range(1, 10 - n):
            mult = (m,) + (1,) * (n - 1)
            spec = q.MultisetSpec(mult)
            hits = 0
            for w in sweeps.qs_words(mult):
                if q.stats(w).des != spec.n:
                    continue
                hits += 1
                parts = q.max_descent_decompose(w)
                assert len(parts) == m
                rebuilt = []
                for p in parts:
                    assert list(p) == sorted(p, reverse=True)
                    rebuilt.extend(p)
                    rebuilt.append(1)
                assert tuple(rebuilt) == w
            assert hits == m ** (n - 1)


# -- perm tuples and zeta ----------------------------------------------


def test_perm_tuple_wire():
    assert q.perm_tuple_from_text("3,1|2") == ((3, 1), (2,))
    assert q.perm_tuple_from_text("3,1||2") == ((3, 1), (), (2,))
    assert q.perm_tuple_to_text(((3, 1), (), (2,))) == "3,1||2"
    assert q.perm_tuple_from_text("1") == ((1,),)
    with pytest.raises(ValueError):
        q.perm_tuple_from_text("1,|2")  # dangling comma
    with pytest.raises(ValueError):
        q.perm_tuple_from_text("x|2")  # not a number
    # semantic problems are left to the checker, not the parser
    with pytest.raises(ValueError):
        q.check_perm_tuple(q.perm_tuple_from_text("1,1|2"))  # repeated value
    with pytest.raises(ValueError):
        q.check_perm_tuple(q.perm_tuple_from_text("1|3"))  # cover has a gap


def test_check_perm_tuple():
    q.check_perm_tuple(((3, 1), (2,)))
    q.check_perm_tuple(((3, 1), (2,)), anchored=True)
    # it returns the parts it read, as tuples of ints
    assert q.check_perm_tuple([[3, True], (2,)]) == ((3, 1), (2,))
    with pytest.raises(ValueError):
        q.check_perm_tuple(((2,), (3, 1)), anchored=True)  # 1 not in part 1
    with pytest.raises(ValueError):
        q.check_perm_tuple(((1, 2), (2,)))
    with pytest.raises(ValueError):
        q.check_perm_tuple(((2,),))  # cover must start at 1
    with pytest.raises(ValueError):
        q.check_perm_tuple(((),), anchored=True)  # nothing anchors the 1
    q.check_perm_tuple(((),))  # vacuous n = 0 cover is allowed unanchored


def test_enumerate_perm_tuples_counts():
    for m in range(1, 5):
        for n in range(1, 5):
            tuples = list(q.enumerate_perm_tuples(m, n))
            assert len(tuples) == factorial(n) * comb(n + m - 1, n)
            assert len(set(tuples)) == len(tuples)
            anchored = list(q.enumerate_perm_tuples(m, n, anchored=True))
            assert len(anchored) == factorial(n) * comb(n + m - 1, n) // m
            assert all(1 in a[0] for a in anchored)
            assert set(anchored) <= set(tuples)


def test_enumerate_perm_tuples_rejects_a_negative_size():
    assert list(q.enumerate_perm_tuples(1, 0)) == [((),)]
    for m in (1, 3):
        with pytest.raises(ValueError, match="n >= 0"):
            q.enumerate_perm_tuples(m, -1)


def test_enumerate_perm_tuples_rejects_floats_at_the_call():
    for m, n in ((2.0, 3), (2, 3.0), ("2", 3)):
        with pytest.raises(ValueError, match="must be integers"):
            q.enumerate_perm_tuples(m, n)


def test_zeta_examples():
    assert q.zeta(((1,), (2,))) == (1, 2, 1)
    assert q.zeta(((3, 1), (2,))) == (3, 1, 2, 1)
    assert q.zeta(((1, 2, 3),)) == (1, 2, 3)
    assert q.zeta_inv((1, 2, 1)) == ((1,), (2,))
    assert q.zeta_inv((3, 1, 2, 1)) == ((3, 1), (2,))


def test_zeta_rejects():
    with pytest.raises(ValueError):
        q.zeta(((2,), (1,)))  # value 1 must sit in part 1
    with pytest.raises(ValueError):
        q.zeta(((1, 2), (2,)))


def test_perm_tuple_values_must_be_integers():
    # 2.0 == 2 passed the cover check and came out in the word
    for bad in (((2.0, 1),), ((2, 1), (3.0,)), ((1, "a"),), ((1,), 2)):
        with pytest.raises(ValueError, match="integers"):
            q.zeta(bad)
        with pytest.raises(ValueError, match="integers"):
            q.check_perm_tuple(bad)

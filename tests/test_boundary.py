"""The boundary contract: a public call outside its documented domain
raises ValueError at the call, never TypeError or AttributeError."""

from fractions import Fraction

import pytest

import qstirling as q
from qstirling import verify

NOT_A_TREE = "not a tree"
NOT_AN_INJECTION = "the injection must be a PartialInj"
NOT_A_PATH_CYCLE = "the path-cycle form must be a PathCycleRep"
NOT_SEQUENCES = "paths and cycles must be sequences of sequences"
NOT_INTEGERS = "path and cycle elements must be integers"
NOT_A_WORD = "word values must be integers"
NOT_PARTS = "parts must be sequences of integers"
NOT_PAIRS = r"terms must be \(\(e_t, e_u, e_v\), c\) pairs"
TOO_LARGE = "K = 100000000000000000000 is too large to enumerate"
MALFORMED_TREES = [(0, 5), (0, ((1, None),)), 0]

# (function, arguments, start of the message)
CASES = [
    (q.exc, ((1, 2),), NOT_AN_INJECTION),
    (q.exc, ({},), NOT_AN_INJECTION),  # has a .values, but is no injection
    (q.to_path_cycle, ([2, 1],), NOT_AN_INJECTION),
    (q.chi_inv, ((2, 1),), NOT_AN_INJECTION),
    (q.delta_inv, ("3:1",), NOT_AN_INJECTION),
    (q.from_path_cycle, (((1, 2),),), NOT_A_PATH_CYCLE),
    (q.render_path_cycle, (((1,),),), NOT_A_PATH_CYCLE),
    # a PathCycleRep whose fields are no sequences of integer sequences:
    # a field that is no sequence, or a path or cycle that is none
    (q.from_path_cycle, (q.PathCycleRep(5, ()),), NOT_SEQUENCES),
    (q.from_path_cycle, (q.PathCycleRep((5,), ()),), NOT_INTEGERS),
    (q.from_path_cycle, (q.PathCycleRep(((1, 2),), 5),), NOT_SEQUENCES),
    (q.render_path_cycle, (q.PathCycleRep(5, ()),), NOT_SEQUENCES),
    (q.render_path_cycle, (q.PathCycleRep((5,), ()),), NOT_INTEGERS),
    (q.render_path_cycle, (q.PathCycleRep(((1, 2),), (5,)),), NOT_INTEGERS),
    (q.render_path_cycle, (q.PathCycleRep(((1, "a"),), ()),), NOT_INTEGERS),
    (q.render_path_cycle, (q.PathCycleRep(((2,),), ((1.0,),)),), NOT_INTEGERS),
    *[
        (fn, (t, *rest), NOT_A_TREE)
        for t in MALFORMED_TREES
        for fn, rest in [
            (q.infer_spec, ()),
            (q.phi, ()),
            (q.psi, (2,)),
            (q.psi_inv, (2,)),
            (q.big_psi, ()),
        ]
    ],
    # a number where the word or the parts go
    *[
        (fn, (word,), message)
        for word in (1.5, 5)
        for fn, message in [
            (q.chi, NOT_A_WORD),
            (q.delta, NOT_A_WORD),
            (q.zeta_inv, NOT_A_WORD),
            (q.max_descent_decompose, NOT_A_WORD),
            (q.check_perm_tuple, NOT_PARTS),
            (q.zeta, NOT_PARTS),
        ]
    ],
    # a number, or an unhashable letter, where the word, the parts or
    # the tree go, read by a function that reads no word of its own
    (q.stats, (1.5,), NOT_A_WORD),
    (q.is_quasi_stirling, (1.5,), NOT_A_WORD),
    (q.is_stirling, (1.5,), NOT_A_WORD),
    (q.is_stirling, ([[1]],), NOT_A_WORD),
    # falsy, but no word: the empty-word shortcut must not take them
    (q.stats, (None,), NOT_A_WORD),
    (q.stats, (0,), NOT_A_WORD),
    (q.stats, (False,), NOT_A_WORD),
    (q.is_stirling, (None,), NOT_A_WORD),
    (q.word_to_text, (1.5,), NOT_A_WORD),
    (q.perm_tuple_to_text, (1.5,), NOT_PARTS),
    # a letter that is no integer, which str() would have written out
    *[(q.word_to_text, (word,), NOT_A_WORD) for word in ([1, None], "ab", [1.5])],
    *[(q.perm_tuple_to_text, (parts,), NOT_PARTS) for parts in ([[1, None]], [5])],
    (q.render_tree, (1.5,), NOT_A_TREE),
    (q.tree_stats, (1.5,), NOT_A_TREE),
    (q.complement, (1.5, 3), "n and the word values must be integers"),
    (q.PartialInj, (3, 1.5), "n and the values must be integers"),
    (q.complement, (5, 3), "n and the word values must be integers"),
    # a family whose words could not be indexed
    (q.enumerate_qs, ((10**20,),), TOO_LARGE),
    (q.enumerate_trees, ((10**20,),), TOO_LARGE),
    (q.enumerate_J, (10**20, 1), TOO_LARGE),
    (q.enumerate_perm_tuples, (1, 10**20), TOO_LARGE),
    (q.word_from_text, (5,), "word text must be a str"),
    (q.word_from_text, (b"1,2",), "word text must be a str"),
    (q.MultisetSpec.from_text, (5,), "multiplicity list must be a str"),
    (q.perm_tuple_from_text, (5,), "tuple text must be a str"),
    (q.PartialInj.from_text, (5,), "partial injection text must be a str"),
    (q.parse_tree, (5,), "tree text must be a str"),
    (q.parse_path_cycle, (5,), "path-cycle text must be a str"),
    # sizes and forms that no answer exists for
    (q.enumerate_perm_tuples, (0, 3), "need at least one slot"),
    (q.from_path_cycle, (q.PathCycleRep(((),), ()),), "empty path or cycle"),
    (
        q.from_path_cycle,
        (q.PathCycleRep(((4, 3), (1,)), ((2,),)),),
        "interior path element 4 is outside the domain",
    ),
    (q.eulerian, (-1,), "n must be a natural number"),
    (q.qs_polynomial_from_series, ((),), "need at least one value"),
    (q.max_descent_count, ((),), "need at least one value"),
    (q.perm_tuple_polynomial_formula, (0, 1), "need m >= 1 and n >= 1"),
    (q.PolyTUV({(0, 0, 0): Fraction(1, 2)}).to_json_obj, (), "polynomial has non-integer"),
    (q.infer_spec, ((0, ((0, ()),)),), "non-root label 0 out of range"),
    (verify.verify_suite, (0,), "max_K must be at least 1"),
    # a polynomial is built from ((e_t, e_u, e_v), c) pairs only
    *[(q.PolyTUV, (terms,), NOT_PAIRS) for terms in (5, [5], {(1, 2): 1}, "ab")],
    # a series is built from exact coefficients only
    (q.SeriesT, (None,), "the coefficients must be an iterable"),
    (q.SeriesT, (5,), "the coefficients must be an iterable"),
    *[
        (q.SeriesT, (coeffs,), "coefficients must be ints, Fractions or PolyTUV values")
        for coeffs in ([0.5], "ab", [None])
    ],
]


@pytest.mark.parametrize(
    "fn, args, message",
    CASES,
    ids=["%s%r" % (fn.__qualname__, args) for fn, args, _ in CASES],
)
def test_call_outside_the_domain_is_a_value_error(fn, args, message):
    with pytest.raises(ValueError, match="^" + message):
        fn(*args)


@pytest.mark.parametrize("t", MALFORMED_TREES)
def test_malformed_tree_is_a_violation(t):
    assert q.tree_violation(t, (1,)).startswith(NOT_A_TREE)
    assert not q.validate_tree(t, (1,))

"""Tree grammar, validation, statistics and enumeration."""

import tracemalloc
from math import factorial

import pytest

import oracles
import qstirling as q
import sweeps

FIGURE_TREE = "0(2,7(7(4)),5(5(6,3(3)),5(1)))"


def _leaf(label):
    return (label, ())


def test_parse_render_round_trip():
    for text in ["0", "0(1)", "0(1(1))", "0(2(2),1)", FIGURE_TREE]:
        t = q.parse_tree(text)
        assert q.render_tree(t) == text


def test_parse_shapes():
    assert q.parse_tree("0") == (0, ())
    assert q.parse_tree("0(1)") == (0, ((1, ()),))
    assert q.parse_tree("0(2(2),1)") == (0, ((2, ((2, ()),)), (1, ())))
    assert q.parse_tree("10(12)") == (10, ((12, ()),))


@pytest.mark.parametrize(
    "bad",
    ["", "0(", "0)", "0(1", "0(1))", "0(1),1", "0(01)", "0(,1)", "0()", "x", "0(1)x"]
    # digits outside ASCII, which str.isdigit accepts
    + ["0(\u00b2)", "0(\u0661)"],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        q.parse_tree(bad)


def test_infer_spec():
    assert q.infer_spec(q.parse_tree("0(2(2),1)")).mult == (1, 2)
    assert q.infer_spec(q.parse_tree(FIGURE_TREE)).mult == (1, 1, 2, 1, 3, 1, 2)
    assert q.infer_spec((0, ())).mult == ()
    with pytest.raises(ValueError):
        q.infer_spec(q.parse_tree("1(1)"))  # root must be 0
    with pytest.raises(ValueError):
        q.infer_spec(q.parse_tree("0(3(3))"))  # labels must be contiguous
    with pytest.raises(ValueError):
        q.infer_spec(q.parse_tree("0(1(2),2(1))"))  # odd 1 holds an even 2
    with pytest.raises(ValueError):
        q.infer_spec(q.parse_tree("0(1(1),1(1))"))  # two odd vertices 1
    with pytest.raises(ValueError):
        q.infer_spec(q.parse_tree("0(1,1)"))  # odd vertex 1 lacks its one child


@pytest.mark.parametrize(
    "t",
    [
        (0.0, ((2, ((2, ()),)), (1, ()))),  # root
        (0, ((2, ((2, ()),)), (1.0, ()))),  # odd vertex
        (0, ((2, ((2.0, ()),)), (1, ()))),  # even vertex
        (0, ((2, ((2, ()),)), (True, ()))),
        (0, ((2, (("2", ()),)), (1, ()))),
    ],
)
def test_labels_must_be_ints(t):
    # "0(2(2),1)" with one label that equals an int or is text
    for call in (q.phi, lambda t: q.psi(t, 2), q.big_psi):
        with pytest.raises(ValueError):
            call(t)
    assert q.tree_violation(t, (1, 2)) is not None


def test_tree_violation_cases():
    spec = q.MultisetSpec((2, 2))
    good = q.parse_tree("0(1(1),2(2))")
    assert q.tree_violation(good, spec) is None
    assert q.validate_tree(good, spec)
    # wrong child label under an odd vertex
    assert q.tree_violation(q.parse_tree("0(1(2),2(1))"), spec) is not None
    # value split over two odd vertices
    assert q.tree_violation(q.parse_tree("0(1(1),1(1))"), q.MultisetSpec((4,))) is not None
    # wrong child count for the multiplicity
    assert q.tree_violation(q.parse_tree("0(1,2(2))"), spec) is not None
    # label counts disagree with the multiset
    assert q.tree_violation(q.parse_tree("0(1(1))"), spec) is not None
    # root label
    assert q.tree_violation((1, ()), spec) is not None
    assert not q.validate_tree(q.parse_tree("0(1(2),2(1))"), spec)


def test_validate_bare_root():
    assert q.validate_tree((0, ()), q.MultisetSpec(()))
    assert not q.validate_tree((0, ()), q.MultisetSpec((1,)))


def test_tree_stats_figure():
    ts = q.tree_stats(q.parse_tree(FIGURE_TREE))
    assert ts == q.TreeStats(cdes=5, casc=6, eleaf=1, first=2, last=5)


def test_tree_stats_small():
    ts = q.tree_stats(q.parse_tree("0(1)"))
    assert (ts.cdes, ts.casc, ts.eleaf, ts.first, ts.last) == (1, 1, 0, 1, 1)
    ts = q.tree_stats(q.parse_tree("0(1(1))"))
    assert (ts.cdes, ts.casc, ts.eleaf) == (1, 1, 1)
    # matches the word statistics through the correspondence
    ts = q.tree_stats(q.parse_tree("0(2(2),1)"))
    st = q.stats((2, 2, 1))
    assert (ts.cdes, ts.casc, ts.eleaf) == (st.des, st.asc, st.plat)


def test_tree_stats_bare_root_raises():
    with pytest.raises(ValueError):
        q.tree_stats((0, ()))


def test_tree_stats_matches_oracle():
    for mult in sweeps.all_mults(6):
        for t in q.enumerate_trees(q.MultisetSpec(mult)):
            assert q.tree_stats(t)[:3] == oracles.cyclic_tree_stats(t), t


def test_enumerate_trees_counts_and_validity():
    for mult in sweeps.all_mults(6):
        spec = q.MultisetSpec(mult)
        rendered = []
        for t in q.enumerate_trees(spec):
            assert q.tree_violation(t, spec) is None
            rendered.append(q.render_tree(t))
        assert len(set(rendered)) == len(rendered)
        assert len(rendered) == factorial(spec.K) // factorial(spec.K - spec.n + 1)


def test_enumerate_trees_small_families():
    assert [q.render_tree(t) for t in q.enumerate_trees(q.MultisetSpec((1,)))] == ["0(1)"]
    assert [q.render_tree(t) for t in q.enumerate_trees(q.MultisetSpec((2,)))] == [
        "0(1(1))"
    ]
    # values with multiplicity 1 are leaves, so both must hang off the root
    two = [q.render_tree(t) for t in q.enumerate_trees(q.MultisetSpec((1, 1)))]
    assert two == ["0(1,2)", "0(2,1)"]
    # construction order: value 1 at the root before under 2's even
    # vertex, and at the root the orders of (1, 2) as permutations lists them
    three = [q.render_tree(t) for t in q.enumerate_trees(q.MultisetSpec((1, 2)))]
    assert three == ["0(1,2(2))", "0(2(2),1)", "0(2(2(1)))"]
    four = [q.render_tree(t) for t in q.enumerate_trees((2, 2))]
    assert four == ["0(1(1),2(2))", "0(2(2),1(1))", "0(1(1(2(2))))", "0(2(2(1(1))))"]


def test_enumerate_trees_holds_one_tree_at_a_time():
    # the 40,320 trees over (1,)^8 stream: sorting them all first peaked
    # near 9.4 MB
    tracemalloc.start()
    try:
        count = sum(1 for _ in q.enumerate_trees((1,) * 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == factorial(8)
    assert peak < 1 << 20, peak


def test_enumerate_trees_empty_spec():
    assert list(q.enumerate_trees(q.MultisetSpec(()))) == [(0, ())]

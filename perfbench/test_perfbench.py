"""Self-tests of the benchmark: input generator, span arithmetic, and that
every workload's checks reject a corrupted output.

    python3 -m pytest -q perfbench
"""

import itertools
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import qstirling  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from inputs import (  # noqa: E402
    make_rng,
    multiplicities,
    naive_is_quasi_stirling,
    qs_count,
    random_qs_word,
)


class FakeSpool:
    """What a check sees of a cli op's output."""

    def __init__(self, text):
        self._text = text

    def text(self):
        return self._text

    def lines(self):
        return iter(self._text.splitlines(keepends=True))


def cli_result(text, rc=0):
    return (rc, FakeSpool(text))


def crossing(word):
    """Literal search for a, b, a, b at increasing positions with a != b."""
    for i, j, k, l in itertools.combinations(range(len(word)), 4):
        if word[i] == word[k] != word[j] == word[l]:
            return True
    return False


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("seed", [1, 2, 3, 17])
@pytest.mark.parametrize("mult", [(1,), (3,), (2, 2), (1, 3, 1, 2), (4, 1, 1, 1, 2), (2,) * 6])
def test_generator_gives_quasi_stirling_words_over_the_multiset(seed, mult):
    rng = make_rng(seed, "test")
    for _ in range(20):
        word = random_qs_word(rng, mult)
        assert multiplicities(word) == mult
        assert naive_is_quasi_stirling(word)
        assert not crossing(word)


def test_generator_is_seeded_and_handles_long_words():
    mult = (1,) * 49 + (2951,)
    a = random_qs_word(make_rng(5, "x"), mult)
    assert a == random_qs_word(make_rng(5, "x"), mult)
    assert multiplicities(a) == mult and naive_is_quasi_stirling(a)


def test_naive_quasi_stirling_check_matches_the_definition():
    for word in itertools.product((1, 2, 3), repeat=6):
        if multiplicities(word):
            assert naive_is_quasi_stirling(word) == (not crossing(word)), word


def test_workload_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert wl.maps_inputs(4) == wl.maps_inputs(4)
    assert wl.maps_inputs(4) != wl.maps_inputs(5)
    keys = [op.key for op in wl.sweep_ops(4)]
    assert keys == [op.key for op in wl.sweep_ops(4)]
    assert sorted(keys) == sorted(op.key for op in wl.sweep_ops(5))


def test_sweep_leaves_out_only_the_zero_case_pairs():
    # 2^(K-1) multisets of each size K; thm23 has no case on the K of them
    # where no value above 1 repeats, e.g. 504 - 21 pairs at K <= 6
    ops = wl.sweep_ops(1)
    per_mult = [op for op in ops if not op.key.startswith(wl.PAIR_CHECKS)]
    Ks = range(1, wl.SWEEP_MAX_K + 1)
    assert len(per_mult) == len(wl.SWEEP_CHECKS) * sum(2 ** (K - 1) for K in Ks) - sum(Ks)


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_direct_children_only():
    #   0: [0, 10]          root
    #   1:   [1, 4]         child of 0
    #   2:     [2, 3]       child of 1
    #   3:   [5, 9]         child of 0
    #   4: [12, 13]         second root
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 12.0]
    end = [10.0, 4.0, 3.0, 9.0, 13.0]
    assert tracer.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_traced_call_is_attributed_to_its_layers():
    # in a fresh interpreter, since install() rewires the package
    script = """
import json, sys
sys.path.insert(0, %r)
import child, tracer
package, modules = child.import_package()
t = tracer.Tracer()
eulerian = tracer.install(t, package, modules)
package.big_phi((1, 2, 2, 3, 3, 3))
print(json.dumps(tracer.layer_metrics(t, 1.0, 0, eulerian)))
""" % HERE
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, check=True)
    m = json.loads(out.stdout)
    assert set(m) == {name for name, _, _, _ in tracer.PER_LAYER}
    assert m["bijections.big_phi.calls"] == 1
    assert m["bijections.psi_steps"] == 1 * 1 + 2 * 2
    assert m["bijections.big_phi.letters"] == 6
    assert m["bijections.big_phi.self_s"] > 0 and m["core.validate.self_s"] > 0
    assert m["cli.run.calls"] == 0


# ---------------------------------------------------------------------------
# every check can fail


def test_sweep_check_rejects_wrong_cases_and_fail_verdicts():
    check = wl.verify_check(wl.expected_cases("thm22", (2, 1)))
    good = json.dumps({"check": "thm22", "pass": True, "cases": 3})
    assert check(cli_result(good), {}) is None
    assert check(cli_result(good.replace('"cases": 3', '"cases": 2')), {})
    assert check(cli_result(good.replace("true", "false"), rc=1), {})
    assert check(cli_result(good, rc=2), {})
    assert wl.expected_cases("thm23", (1, 2, 2)) == qs_count((1, 2, 2)) * 2
    assert wl.expected_cases("thm23", (3, 1)) == 0
    assert wl.expected_cases("thm12", (2, 2, 1)) == 6


def test_maps_checks_reject_a_swapped_pair_in_the_phi_image():
    word = random_qs_word(make_rng(1, "t"), (1, 2, 3, 1, 2))
    image = qstirling.big_phi(word)
    check = wl.image_check(word, (5, 1, 1, 1, 1))
    assert check(cli_result(wl.text(image)), {}) is None
    i = next(i for i in range(1, len(image)) if image[i] != image[0])
    swapped = list(image)
    swapped[0], swapped[i] = swapped[i], swapped[0]
    assert check(cli_result(wl.text(swapped)), {})
    assert check(cli_result(wl.text(word)), {})  # not over the flattened multiset
    assert wl.equals(wl.text(word))(cli_result(wl.text(swapped)), {})


def test_maps_checks_reject_corrupted_delta_and_zeta_outputs():
    flat = (2, 1, 3, 1, 1)
    outs = {"f": wl.text(flat)}
    inj = qstirling.delta(flat)
    good = qstirling.render_path_cycle(qstirling.to_path_cycle(inj))
    assert wl.delta_check("f")(cli_result(good), outs) is None
    # reverse a path-cycle element order: excedances change
    assert wl.delta_check("f")(cli_result("<5,4,3,2,1>"), outs)
    tup = qstirling.perm_tuple_to_text(qstirling.zeta_inv(flat))
    assert wl.zeta_inv_check("f")(cli_result(tup), outs) is None
    assert wl.zeta_inv_check("f")(cli_result(tup[::-1]), outs)


def test_deep_probes_are_past_the_recursion_limit():
    assert all(len(w) > sys.getrecursionlimit() for _, w in wl.deep_probes())


def test_counting_checks_reject_corrupted_outputs():
    mult = (2, 1, 2)
    poly = qstirling.qs_polynomial(qstirling.MultisetSpec(mult))
    text = json.dumps(poly.to_json_obj())
    assert wl.poly_check(mult)(cli_result(text), {}) is None
    obj = poly.to_json_obj()
    obj[0]["c"] = str(int(obj[0]["c"]) + 1)
    assert wl.poly_check(mult)(cli_result(json.dumps(obj)), {})

    lines = [wl.text(w) for w in qstirling.enumerate_qs(qstirling.MultisetSpec(mult))]
    check = wl.enumerate_check(mult)
    assert check(cli_result("\n".join(lines) + "\n"), {}) is None
    lines[3], lines[4] = lines[4], lines[3]
    assert check(cli_result("\n".join(lines) + "\n"), {})
    assert check(cli_result("\n".join(sorted(lines)[:-1]) + "\n"), {})

    count = {"mult": "2,1,2", "n": 3, "K": 5, "count": qs_count(mult)}
    assert wl.count_check(mult)(cli_result(json.dumps(count)), {}) is None
    count["count"] += 1
    assert wl.count_check(mult)(cli_result(json.dumps(count)), {})

    series = qstirling.qs_polynomial_from_series(mult)
    assert wl.series_check(mult, "poly")(series, {"poly": text}) is None
    bad = qstirling.PolyTUV(dict(series.terms))
    key = next(iter(bad.terms))
    bad.terms[key] += 1
    assert wl.series_check(mult)(bad, {})


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(wl.NAMES)
    rep = {"op_s": [0.001, 0.002], "op_gauge_s": [0.002, 0.003], "gauge_s": [0.002, 0.002, 0.004],
           "wall_s": 0.003, "setup_s": 0.1, "peak_rss_mb": 20.0}
    printed = run.end_to_end([rep, rep])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, v["unit"]) for k, v in printed.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracer.PER_LAYER
    ]


def test_times_are_scaled_to_the_nominal_speed():
    """Each op is scaled by the gauge readings around it: an op that ran
    while the machine was at half the nominal speed counts half its time.
    Set-up is scaled by the first reading; memory is not scaled."""
    g = run.GAUGE_NOMINAL_S
    rep = {"op_s": [0.002, 0.004, 0.006], "op_gauge_s": [g, 2 * g, 3 * g], "gauge_s": [2 * g, 2 * g, 3 * g],
           "wall_s": 0.012, "setup_s": 0.2, "peak_rss_mb": 20.0}
    m = run.end_to_end([rep])
    assert m["wall_s"]["value"] == pytest.approx(0.006)
    assert m["setup_s"]["value"] == pytest.approx(0.1)
    assert m["op_p50_ms"]["value"] == pytest.approx(2.0)
    assert m["op_p90_ms"]["value"] == pytest.approx(2.0)
    assert m["peak_rss_mb"]["value"] == 20.0
    assert run.end_to_end([rep], scaled=False)["wall_s"]["value"] == 0.012

"""Command-line surface: frozen outputs, formats and exit codes."""

import json
import subprocess
import sys

import pytest

from qstirling import bijections, cli, genfun, verify

FIGURE_WORD_TEXT = "2,7,4,7,5,6,3,3,5,1,5"
FIGURE_TREE = "0(2,7(7(4)),5(5(6,3(3)),5(1)))"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_lines(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--mult", "2,2")
    assert code == 0
    assert out == "1,1,2,2\n1,2,2,1\n2,1,1,2\n2,2,1,1\n"


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--mult", "2,2", "--format", "json")
    assert code == 0
    assert out == '["1,1,2,2", "1,2,2,1", "2,1,1,2", "2,2,1,1"]\n'


def test_stats_word(capsys):
    code, out, _ = run_cli(capsys, "stats", "--perm", "1,2,2,1")
    assert code == 0
    assert out == '{"asc": 2, "des": 2, "plat": 1}\n'
    code, out, _ = run_cli(capsys, "stats", "--perm", "1,2,2,1", "--format", "lines")
    assert (code, out) == (0, "asc=2 des=2 plat=1\n")


def test_stats_tree(capsys):
    code, out, _ = run_cli(capsys, "stats", "--tree", FIGURE_TREE)
    assert code == 0
    assert out == '{"casc": 6, "cdes": 5, "eleaf": 1, "first": 2, "last": 5}\n'
    code, out, _ = run_cli(capsys, "stats", "--tree", FIGURE_TREE, "--format", "lines")
    assert (code, out) == (0, "cdes=5 casc=6 eleaf=1 first=2 last=5\n")


def test_stats_operand_required(capsys):
    code, out, err = run_cli(capsys, "stats")
    assert code == 2 and out == "" and "error:" in err
    code, out, err = run_cli(capsys, "stats", "--perm", "1", "--tree", "0(1)")
    assert code == 2 and out == ""


def test_stats_rejects_invalid_tree(capsys):
    code, out, err = run_cli(capsys, "stats", "--tree", "0(1(2))")
    assert code == 2 and out == ""
    code, out, err = run_cli(capsys, "stats", "--tree", "0")
    assert code == 2 and out == ""


def test_poly_json(capsys):
    code, out, _ = run_cli(capsys, "poly", "--mult", "2,1")
    assert code == 0
    assert out == (
        '[{"c": "1", "t": 1, "u": 2, "v": 1}, '
        '{"c": "1", "t": 2, "u": 1, "v": 1}, '
        '{"c": "1", "t": 2, "u": 2, "v": 0}]\n'
    )


def test_poly_lines(capsys):
    code, out, _ = run_cli(capsys, "poly", "--mult", "2,2", "--format", "lines")
    assert (code, out) == (0, "t*u^2*v^2 + t^2*u*v^2 + 2*t^2*u^2*v\n")


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--mult", "2,2")
    assert code == 0
    assert out == '{"K": 4, "count": 4, "mult": "2,2", "n": 2}\n'
    code, out, _ = run_cli(capsys, "count", "--mult", "2,2", "--format", "lines")
    assert (code, out) == (0, "4\n")


def test_map_phi_round_trip(capsys):
    code, out, _ = run_cli(capsys, "map", "--which", "phi", "--tree", FIGURE_TREE)
    assert (code, out) == (0, FIGURE_WORD_TEXT + "\n")
    code, out, _ = run_cli(capsys, "map", "--which", "phi-inv", "--perm", FIGURE_WORD_TEXT)
    assert (code, out) == (0, FIGURE_TREE + "\n")


def test_map_psi(capsys):
    code, out, _ = run_cli(capsys, "map", "--which", "psi:2", "--tree", "0(1,2(2))")
    assert (code, out) == (0, "0(1(1),2)\n")
    code, out, _ = run_cli(capsys, "map", "--which", "psi-inv:2", "--tree", "0(1(1),2)")
    assert (code, out) == (0, "0(1,2(2))\n")


def test_map_big_maps(capsys):
    code, out, _ = run_cli(capsys, "map", "--which", "Psi", "--tree", "0(2(2),1)")
    assert (code, out) == (0, "0(2,1(1))\n")
    code, out, _ = run_cli(capsys, "map", "--which", "Phi", "--perm", "2,2,1")
    assert (code, out) == (0, "2,1,1\n")
    code, out, _ = run_cli(
        capsys, "map", "--which", "Phi-inv", "--perm", "2,1,1", "--mult", "1,2"
    )
    assert (code, out) == (0, "2,2,1\n")


def test_map_phi_inv_requires_mult(capsys):
    code, out, err = run_cli(capsys, "map", "--which", "Phi-inv", "--perm", "2,1,1")
    assert code == 2 and out == "" and "--mult" in err


def test_map_chi(capsys):
    code, out, _ = run_cli(
        capsys, "map", "--which", "chi", "--perm", "4,6,9,9,5,2,8,9,1,7,3"
    )
    assert (code, out) == (0, "<4,6,9><10><5,2,8,11>(1,7,3)\n")
    # the inverse accepts both the rendered form and the wire form
    code, out, _ = run_cli(
        capsys, "map", "--which", "chi-inv", "--perm", "<4,6,9><10><5,2,8,11>(1,7,3)"
    )
    assert (code, out) == (0, "4,6,9,9,5,2,8,9,1,7,3\n")
    code, out, _ = run_cli(
        capsys, "map", "--which", "chi-inv", "--perm", "11:7,8,1,6,2,9,3,11"
    )
    assert (code, out) == (0, "4,6,9,9,5,2,8,9,1,7,3\n")


def test_map_delta(capsys):
    code, out, _ = run_cli(capsys, "map", "--which", "delta", "--perm", "1,3,1,2")
    assert (code, out) == (0, "<3><1,4>(2)\n")
    code, out, _ = run_cli(capsys, "map", "--which", "delta-inv", "--perm", "4:4,2")
    assert (code, out) == (0, "1,3,1,2\n")
    code, out, _ = run_cli(capsys, "map", "--which", "delta-inv", "--perm", "<3><1,4>(2)")
    assert (code, out) == (0, "1,3,1,2\n")


def test_map_zeta(capsys):
    code, out, _ = run_cli(capsys, "map", "--which", "zeta", "--perm", "3,1|2")
    assert (code, out) == (0, "3,1,2,1\n")
    code, out, _ = run_cli(capsys, "map", "--which", "zeta-inv", "--perm", "3,1,2,1")
    assert (code, out) == (0, "3,1|2\n")


def test_map_transport(capsys):
    code, out, _ = run_cli(
        capsys, "map", "--which", "transport:1,3", "--perm", "1,2,2,1"
    )
    assert (code, out) == (0, "2,2,1,2\n")


def test_map_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "map", "--which", "zeta", "--perm", "3,1|2", "--format", "json"
    )
    assert (code, out) == (0, '{"result": "3,1,2,1"}\n')


def test_map_errors(capsys):
    code, out, err = run_cli(capsys, "map", "--which", "warp", "--perm", "1")
    assert code == 2 and out == "" and "unknown map" in err
    code, out, _ = run_cli(capsys, "map", "--which", "psi:x", "--tree", "0(1(1))")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "map", "--which", "chi", "--perm", "1,1,2")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "map", "--which", "phi", "--tree", "0(1(2))")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "map", "--perm", "1")
    assert code == 2 and out == ""


def test_verify_single_check_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "coro14", "--mult", "2,2,2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "cases": 1,
        "check": "coro14",
        "expected": 16,
        "got": 16,
        "pass": True,
        "report": "expected 16, got 16",
    }


def test_verify_single_check_lines(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "coro14", "--mult", "2,2", "--format", "lines"
    )
    assert (code, out) == (0, "PASS coro14 (cases=1) expected 3, got 3\n")
    code, out, _ = run_cli(
        capsys, "verify", "--check", "thm22", "--mult", "2,1", "--format", "lines"
    )
    assert (code, out) == (0, "PASS thm22 (cases=3)\n")


def test_verify_each_check_token(capsys):
    for check in sorted(verify.CHECKS):
        code, out, _ = run_cli(capsys, "verify", "--check", check, "--max-K", "3")
        assert code == 0, check
        payload = json.loads(out)
        assert payload["check"] == check
        assert payload["pass"] is True
        assert payload["cases"] > 0


def test_verify_check_with_mult_operand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "thm12", "--mult", "2,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["cases"] == 3
    code, out, _ = run_cli(capsys, "verify", "--check", "eq5", "--mult", "2,3")
    assert code == 0
    assert json.loads(out)["cases"] == 1
    code, out, _ = run_cli(capsys, "verify", "--check", "thm12", "--mult", "21,1")
    assert code == 0
    assert json.loads(out)["cases"] == 21


def test_verify_suite_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "--max-K", "3")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_K"] == 3
    names = [entry["name"] for entry in report["checks"]]
    assert sorted(names) == sorted(list(verify.CHECKS) + list(verify.SUITE_EXTRAS))
    assert all(entry["pass"] for entry in report["checks"])


def test_verify_suite_lines(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "--max-K", "3", "--format", "lines"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "PASS"
    assert len(lines) == len(verify.CHECKS) + len(verify.SUITE_EXTRAS) + 1
    assert all(line.startswith("PASS ") for line in lines[:-1])


def test_verify_suite_trivial_bound(capsys):
    # no multiset with K <= 2 has a value j >= 2 to shift, so thm23 runs
    # no case
    for max_K in ("1", "2"):
        code, out, err = run_cli(capsys, "verify", "--suite", "--max-K", max_K)
        assert code == 2 and out == ""
        assert "thm23" in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(genfun, "max_descent_count", lambda spec: 999)
    code, out, _ = run_cli(capsys, "verify", "--check", "coro14", "--mult", "2,2")
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["failure_count"] == 1
    assert payload["got"] == 3 and payload["expected"] == 999


def test_verify_requires_check_or_suite(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == 2 and out == ""
    code, out, err = run_cli(capsys, "verify", "--check", "bogus")
    assert code == 2 and out == "" and "unknown check" in err


def test_verify_honours_order_zero(capsys, monkeypatch):
    orders = []
    # record the order the CLI passes on, then report one passing case
    monkeypatch.setitem(
        verify.CHECKS, "eq2", lambda specs, order: orders.append(order) or (1, [])
    )
    code, _, _ = run_cli(capsys, "verify", "--check", "eq2", "--order", "0", "--mult", "2,2")
    assert (code, orders) == (0, [0])


def test_verify_suite_honours_order(capsys, monkeypatch):
    orders = []
    real_eq2 = verify.CHECKS["eq2"]
    monkeypatch.setitem(
        verify.CHECKS,
        "eq2",
        lambda specs, order: orders.append(order) or real_eq2(specs, order),
    )
    code, _, _ = run_cli(capsys, "verify", "--suite", "--max-K", "3", "--order", "3")
    assert (code, orders) == (0, [3])


def test_kernel_image_outside_family_fails(capsys, monkeypatch):
    # each faulty kernel appends a value absent from every family
    real_phi, real_transport = bijections._phi, bijections._transport
    monkeypatch.setattr(bijections, "_phi", lambda t: real_phi(t) + (99,))
    monkeypatch.setattr(
        bijections, "_transport", lambda *args: real_transport(*args) + (99,)
    )
    for check in ("thm22", "thm11"):
        code, out, _ = run_cli(
            capsys, "verify", "--check", check, "--mult", "2,1", "--format", "lines"
        )
        assert code == 1, check
        assert out.startswith("FAIL %s (cases=3)" % check), out


def test_unexpected_error_exits_three(capsys, monkeypatch):
    def crash(*args):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(bijections, "phi_inv", crash)
    monkeypatch.setattr(genfun, "max_descent_count", crash)
    for argv in (
        ("map", "--which", "phi-inv", "--perm", "1,2"),
        ("verify", "--check", "coro14", "--mult", "2,2"),
        ("verify", "--suite", "--max-K", "3"),  # coro14 calls max_descent_count
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert out == "", argv
        assert err == "error: RuntimeError: kernel fault\n", argv


def test_invalid_inputs_exit_two_without_output(capsys):
    cases = [
        ("enumerate",),  # missing --mult
        ("enumerate", "--mult", "2,0"),
        ("enumerate", "--mult", "x"),
        ("poly",),
        ("count", "--mult", ""),
        ("stats", "--perm", "1,a"),
        ("verify", "--check", "thm22", "--max-K", "0"),
        ("verify", "--check", "thm22", "--max-K", "-1"),
        ("verify", "--suite", "--max-K", "0"),
        ("verify", "--check", "eq2", "--order", "-1"),
        ("verify", "--check", "thm23", "--mult", "3"),  # no value to shift
        ("verify", "--check", "thm23", "--max-K", "1"),
    ]
    # a value far beyond the word's length is a gap, not a huge allocation
    for which in ("phi-inv", "Phi", "chi", "delta", "zeta-inv", "transport:1"):
        cases.append(("map", "--which", which, "--perm", "99999999999999999999"))
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err != "", argv


def test_argparse_level_errors(capsys):
    code, out, _ = run_cli(capsys, "frobnicate")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "enumerate", "--bogus-flag", "1")
    assert code == 2 and out == ""
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "enumerate", "--help")[0] == 0


def test_byte_identical_reruns(capsys):
    first = run_cli(capsys, "poly", "--mult", "2,2,1")
    second = run_cli(capsys, "poly", "--mult", "2,2,1")
    assert first == second
    third = run_cli(capsys, "verify", "--suite", "--max-K", "2")
    fourth = run_cli(capsys, "verify", "--suite", "--max-K", "2")
    assert third == fourth


def test_console_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "qstirling.cli", "enumerate", "--mult", "2,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,1,2,2\n1,2,2,1\n2,1,1,2\n2,2,1,1\n"


def test_closed_pipe_is_not_a_crash():
    proc = subprocess.Popen(
        [sys.executable, "-m", "qstirling.cli", "enumerate", "--mult", "1," * 8 + "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.read(30)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert err == b""
    assert code not in (1, 3)

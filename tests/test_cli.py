"""Command-line surface: frozen outputs, formats and exit codes."""

import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
from itertools import islice
from types import SimpleNamespace

import pytest

import oracles
import qstirling as q
import sweeps
from qstirling import bijections, cli, core, excedance, genfun, verify

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


def test_enumerate_one_value(capsys):
    assert run_cli(capsys, "enumerate", "--mult", "5")[1] == "1,1,1,1,1\n"
    out = run_cli(capsys, "enumerate", "--mult", "5", "--format", "json")[1]
    assert out == '["1,1,1,1,1"]\n'


def test_enumerate_json_is_the_dumped_family(capsys):
    words = [core.word_to_text(w) for w in core.enumerate_qs((3, 1, 3, 2, 1))]
    code, out, _ = run_cli(capsys, "enumerate", "--mult", "3,1,3,2,1", "--format", "json")
    assert code == 0 and out == json.dumps(words, sort_keys=True) + "\n"


def _assert_gathered(writes, sizes, lead, sep, end=None):
    """What the enumerate writer guarantees of its writes, given the sizes
    of the kernel's chunks and, for a whole stream, its end: every write
    after the first starts with sep; every write but the last of a whole
    stream holds at least 32 KB; and no write holds more than 32 KB plus
    one chunk, besides its separators and the lead or the end."""
    assert writes[0].startswith(lead)
    assert all(w.startswith(sep) for w in writes[1:])
    assert all(len(w) >= 1 << 15 for w in (writes if end is None else writes[:-1]))
    texts = [writes[0][len(lead) :], *writes[1:]]
    if end is not None:
        assert texts[-1].endswith(end)
        texts[-1] = texts[-1][: -len(end)]
    most = (1 << 15) + max(sizes)
    assert all(len(t) - t.count(sep) * len(sep) < most for t in texts)


def test_enumerate_writes_blocks_of_lines(capsys, monkeypatch):
    kernel = core._enumerate_qs
    sizes = []

    def chunks(*args):
        for chunk in kernel(*args):
            sizes.append(len(chunk))
            yield chunk

    spec = core.MultisetSpec((2, 2, 2, 2, 2))
    want = "".join(core.word_to_text(w) + "\n" for w in core.enumerate_qs(spec))
    writes = []
    monkeypatch.setattr(core, "_enumerate_qs", chunks)
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert cli.run(["enumerate", "--mult", "2,2,2,2,2"]) == 0
    monkeypatch.undo()
    assert "".join(writes) == want and want.count("\n") == 5040
    # streamed: more than one write, none holding the whole family
    assert 1 < len(writes) and max(map(len, writes)) < len(want)
    _assert_gathered(writes, sizes, "", "\n", "\n")
    # the JSON array streams the same way
    want = json.dumps(want.splitlines(), sort_keys=True) + "\n"
    writes, sizes[:] = [], []
    monkeypatch.setattr(core, "_enumerate_qs", chunks)
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert cli.run(["enumerate", "--mult", "2,2,2,2,2", "--format", "json"]) == 0
    monkeypatch.undo()
    assert "".join(writes) == want
    # no write holds the whole family: each word is two quotes
    assert 1 < len(writes) and max(w.count('"') for w in writes) < 2 * 5040
    _assert_gathered(writes, sizes, '["', '", "', '"]\n')
    # ten values: a line and its newline take 78 characters, not the 59
    # of one digit per value; the reader takes three writes and goes
    writes, sizes[:] = [], []

    def write(text):
        writes.append(text)
        if len(writes) == 3:
            raise BrokenPipeError

    monkeypatch.setattr(core, "_enumerate_qs", chunks)
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=write))
    assert cli.run(["enumerate", "--mult", "1,1,1,1,1,1,1,1,1,20"]) == 3
    monkeypatch.undo()
    _assert_gathered(writes, sizes, "", "\n")
    lines = "".join(writes).split("\n")
    words = islice(core.enumerate_qs((1,) * 9 + (20,)), len(lines))
    assert lines == [core.word_to_text(w) for w in words]
    # (300,1,1,9,1,1): a line takes 626 characters, and the search hands
    # over the words in chunks of several lines, each of at most
    # core._CHUNK characters; every write still holds whole words, and
    # the reader takes four writes and goes
    mult = (300, 1, 1, 9, 1, 1)

    def write(text):
        writes.append(text)
        if len(writes) == 4:
            raise BrokenPipeError

    for fmt, lead, sep in (("lines", "", "\n"), ("json", '["', '", "')):
        line = 2 * sum(mult) - 1 + len(sep)
        writes, sizes[:] = [], []
        monkeypatch.setattr(core, "_enumerate_qs", chunks)
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=write))
        assert cli.run(["enumerate", "--mult", "300,1,1,9,1,1", "--format", fmt]) == 3
        monkeypatch.undo()
        assert len(writes) == 4 and line < max(sizes) <= core._CHUNK
        _assert_gathered(writes, sizes, lead, sep)
        stream = "".join(writes)
        assert stream.startswith(lead)
        lines = stream[len(lead) :].split(sep)
        words = islice(core.enumerate_qs(mult), len(lines))
        assert lines == [core.word_to_text(w) for w in words]


def test_enumerate_prints_every_small_family(monkeypatch):
    # every family with K <= 7, and (3,2,1,1,1,1), whose last chunk
    # completes a write in JSON, as (2,1,1,1,1,1) does in lines: that
    # write holds the array's last words, and one more holds "\"]\n"
    ends = set()
    for mult in sweeps.all_mults(7) + [(3, 2, 1, 1, 1, 1)]:
        texts = [core.word_to_text(w) for w in sweeps.qs_words(mult)]
        argv = ["enumerate", "--mult", ",".join(map(str, mult))]
        for fmt, want, end in (
            ("lines", "\n".join(texts) + "\n", "\n"),
            ("json", json.dumps(texts) + "\n", '"]\n'),
        ):
            writes = []
            monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
            code = cli.run(argv + ["--format", fmt])
            monkeypatch.undo()
            assert (code, "".join(writes)) == (0, want), (mult, fmt)
            if len(writes) > 1 and writes[-1] == end:
                ends.add(fmt)
    assert ends == {"lines", "json"}


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


@pytest.mark.parametrize("label", ["\u00b2", "\u0661"])
def test_stats_rejects_a_label_digit_outside_ascii(capsys, label):
    # superscript two and Arabic-Indic one pass str.isdigit
    code, out, err = run_cli(capsys, "stats", "--tree", "0(%s)" % label)
    assert code == 2 and out == "" and "expected a label at position 2" in err
    assert "invalid literal" not in err


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


def test_poly_is_byte_identical_to_enumeration(capsys):
    # poly extracts the polynomial; it must print what enumerating the
    # words prints, in both formats
    for mult in sweeps.all_mults(6):
        spec = core.MultisetSpec(mult)
        text = spec.to_text()
        poly = core.qs_polynomial(spec)
        code, out, _ = run_cli(capsys, "poly", "--mult", text)
        assert (code, out) == (0, json.dumps(poly.to_json_obj(), sort_keys=True) + "\n")
        code, out, _ = run_cli(capsys, "poly", "--mult", text, "--format", "lines")
        assert (code, out) == (0, poly.pretty() + "\n")


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--mult", "2,2")
    assert code == 0
    assert out == '{"K": 4, "count": 4, "mult": "2,2", "n": 2}\n'
    code, out, _ = run_cli(capsys, "count", "--mult", "2,2", "--format", "lines")
    assert (code, out) == (0, "4\n")


def lifted(fn, *args, **kwargs):
    """fn(*args, **kwargs) with the interpreter's limit on the digits of
    integer text lifted, and restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn(*args, **kwargs)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_past_the_digit_limit(capsys):
    # 2000! has 5,736 digits, more than str() writes by default: both
    # formats print what they would print with the limit lifted
    mult = ",".join(["1"] * 2000)
    count = core.qs_count((1,) * 2000)
    assert len(lifted(str, count)) == 5736 > sys.get_int_max_str_digits()
    payload = {"mult": mult, "n": 2000, "K": 2000, "count": count}
    code, out, _ = run_cli(capsys, "count", "--mult", mult)
    assert (code, out) == (0, lifted(json.dumps, payload, sort_keys=True) + "\n")
    code, out, _ = run_cli(capsys, "count", "--mult", mult, "--format", "lines")
    assert (code, out) == (0, lifted(str, count) + "\n")


def test_number_past_the_digit_limit_is_named(capsys):
    # a number int() will not read is refused with the limit it passes,
    # not as a number of other characters
    code, out, err = run_cli(capsys, "count", "--mult", "1," + "9" * 5000)
    assert code == 2 and out == ""
    limit = sys.get_int_max_str_digits()
    assert "a number of 5000 digits, past the limit of %d digits" % limit in err
    assert "ASCII" not in err


# every wire reader of a number the CLI reaches, "{}" where the number goes
NUMBER_READERS = {
    "--mult": [
        ("count", "--mult", "{}"),
        ("enumerate", "--mult", "{}"),
        ("poly", "--mult", "{}"),
        ("verify", "--check", "thm22", "--mult", "{}"),
        ("map", "--which", "Phi-inv", "--perm", "1,1,2", "--mult", "{}"),
        ("map", "--which", "transport:{}", "--perm", "1,1,2"),
    ],
    "--perm": [
        ("stats", "--perm", "{}"),
        ("map", "--which", "Phi", "--perm", "{}"),
        ("map", "--which", "phi-inv", "--perm", "{}"),
        ("map", "--which", "zeta", "--perm", "{}"),
        ("map", "--which", "chi-inv", "--perm", "3:{}"),
    ],
    "--max-K": [
        ("verify", "--check", "thm22", "--max-K", "{}"),
        ("verify", "--suite", "--max-K", "{}"),
    ],
    "--order": [("verify", "--check", "eq2", "--order", "{}")],
    "psi:<j>": [
        ("map", "--which", "psi:{}", "--tree", "0(1,2(2))"),
        ("map", "--which", "psi-inv:{}", "--tree", "0(1,2(2))"),
    ],
}
MALFORMED_NUMBERS = ["1,,2", "1_0", "+1", "\u0661", "x", "1.5", "1e3", "0x1", "1 2", "2,\u00a01"]
MALFORMED_NUMBERS += ["9" * 5000]  # past the limit on integer text


@pytest.mark.parametrize("reader", sorted(NUMBER_READERS))
def test_malformed_numbers_exit_two(capsys, reader):
    # a number a reader refuses is invalid input: exit 2 with one error
    # line and nothing on stdout, never a crash (exit 3)
    bad = MALFORMED_NUMBERS + (["1,2", ""] if reader in ("--max-K", "--order", "psi:<j>") else [])
    for template in NUMBER_READERS[reader]:
        for number in bad:
            argv = [arg.replace("{}", number) for arg in template]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv


class WriteLog:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


ONE_WRITE_ANSWERS = [
    (("map", "--which", "Phi", "--perm", "3,1,1,3,2,2,3"), "1,1,2,1,3,1,1\n"),
    (("map", "--which", "phi-inv", "--perm", "1,2,2,1", "--format", "json"),
     '{"result": "0(1(1(2(2))))"}\n'),
    (("map", "--which", "delta", "--perm", "1,3,1,2,1"), "<3><1,4><2,5>\n"),
    (("map", "--which", "zeta-inv", "--perm", "1,3,1,2,1"), "1|3|2\n"),
    (("count", "--mult", "2,2"), '{"K": 4, "count": 4, "mult": "2,2", "n": 2}\n'),
    (("count", "--mult", "2,2", "--format", "lines"), "4\n"),
    (("stats", "--perm", "1,2,2,1"), '{"asc": 2, "des": 2, "plat": 1}\n'),
    (("poly", "--mult", "2,1", "--format", "lines"), "t*u^2*v + t^2*u*v + t^2*u^2\n"),
    (("poly", "--mult", "2,1"), '[{"c": "1", "t": 1, "u": 2, "v": 1}, {"c": "1", "t": 2, '
     '"u": 1, "v": 1}, {"c": "1", "t": 2, "u": 2, "v": 0}]\n'),
    (("verify", "--check", "thm22", "--mult", "2,1"), '{"cases": 3, "check": "thm22", "pass": true}\n'),
    (("verify", "--suite", "--max-K", "3", "--format", "lines"),
     "".join("PASS %s (cases=%d)\n" % pair for pair in [
         ("thm22", 17), ("thm23", 3), ("thm11", 17), ("thm12", 7), ("thm13", 7), ("coro14", 7),
         ("coro15", 7), ("eq2", 7), ("eq5", 6), ("eq7", 6), ("zeta", 14), ("eq4", 14)]) + "PASS\n"),
]


def test_each_answer_is_one_write(monkeypatch):
    # the answer and its newline go out in one write, with the bytes the
    # verbs have always printed; a count past str()'s digit limit too
    mult = ",".join(["1"] * 2000)
    count = core.qs_count((1,) * 2000)
    payload = {"mult": mult, "n": 2000, "K": 2000, "count": count}
    answers = ONE_WRITE_ANSWERS + [
        (("count", "--mult", mult), lifted(json.dumps, payload, sort_keys=True) + "\n"),
        (("count", "--mult", mult, "--format", "lines"), lifted(str, count) + "\n"),
    ]
    for argv, answer in answers:
        log = WriteLog()
        monkeypatch.setattr(sys, "stdout", log)
        assert cli.run(list(argv)) == 0, argv
        assert log.writes == [answer], argv


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


def test_map_chi_and_delta_print_the_public_rendering(capsys):
    # the command renders the form that to_path_cycle builds without
    # checking it again, and prints what render_path_cycle writes
    seen = 0
    for n in range(1, 6):
        for m in range(1, 4):
            for w in oracles.multiset_permutations((1,) * (n - 1) + (m,)):
                for which, fn, word in (
                    ("chi", q.chi, w),
                    ("delta", q.delta, q.complement(w, n)),
                ):
                    text = q.word_to_text(word)
                    code, out, _ = run_cli(capsys, "map", "--which", which, "--perm", text)
                    want = q.render_path_cycle(q.to_path_cycle(fn(word)))
                    assert (code, out) == (0, want + "\n")
                    seen += 1
    assert seen > 500


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
    code, out, err = run_cli(capsys, "map", "--which", "warp", "--tree", "0(1)")
    assert code == 2 and out == "" and "unknown map" in err
    code, out, err = run_cli(capsys, "map", "--which", "psi:x", "--tree", "0(1(1))")
    assert code == 2 and out == "" and "'psi:x'" in err
    code, out, err = run_cli(capsys, "map", "--which", "psi:2", "--tree", "0(1(1))")
    assert code == 2 and out == "" and "no value to shift" in err
    code, out, _ = run_cli(capsys, "map", "--which", "chi", "--perm", "1,1,2")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "map", "--which", "phi", "--tree", "0(1(2))")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "map", "--perm", "1")
    assert code == 2 and out == ""
    # a bad number is named in the text it came from, not by int()
    for which, operand, named in [
        ("zeta", "a|b", "'a|b'"),
        ("chi-inv", "5:x", "'5:x'"),
        ("chi-inv", "<1,x>", "'<1,x>'"),
    ]:
        code, out, err = run_cli(capsys, "map", "--which", which, "--perm", operand)
        assert code == 2 and out == "" and named in err, which
        assert "invalid literal" not in err, which


# operands of every kind a map reads: valid ones, ones of another map's
# family or format, and malformed ones
MAP_OPERANDS = {
    "tree": ["0(2(2),1)", "0(1,2(2))", "0(1(1),2)", "0(1(2))", "0("],
    "perm": [
        "2,2,1", "2,1,1", "1,3,1,2", "1,2,1,2", "3,1|2", "4:4,2", "<3><1,4>(2)", "0", "x", ""
    ],
    "mult": ["1,2", "2,1", "x"],
}
# texts after ":" in --which, by what the map's name takes there
MAP_PARAMETERS = {"": ["1"], ":<j>": ["1", "2", "x", ""], ":<mult>": ["1,3", "2,1", "x", ""]}


def test_every_map_exits_zero_or_two(capsys):
    # each row of the map table, under valid, malformed and wrong-family
    # operands, missing operands and operands it does not read: exit 2 is
    # one error line and no output, exit 0 prints the same on a rerun
    calls = 0
    for name, (suffix, reads, _) in cli._MAPS.items():
        whiches = [name] + [name + ":" + param for param in MAP_PARAMETERS[suffix]]
        argvs = []
        for which in whiches:
            head = ["map", "--which", which]
            operands = [[]]
            for flag in reads:
                operands = [o + ["--" + flag, v] for o in operands for v in MAP_OPERANDS[flag]]
            argvs += [head + o for o in operands]
            for flag in ("mult", "perm", "tree"):  # one operand missing, or one unread
                given = [f for f in reads if f != flag] if flag in reads else [*reads, flag]
                argvs.append(head + [x for f in given for x in ("--" + f, MAP_OPERANDS[f][0])])
        passed = 0
        for argv in argvs:
            code, out, err = run_cli(capsys, *argv)
            assert code in (0, 2), argv
            if code == 2:
                assert out == "" and err.startswith("error: "), argv
                assert err.count("\n") == 1, argv
            else:
                assert err == "" and run_cli(capsys, *argv) == (0, out, ""), argv
                passed += 1
        assert passed, name  # the operands above hold a valid one
        calls += len(argvs)
    assert calls > 400


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


def test_compositions_by_part_count():
    for K in range(1, 11):
        every = list(sweeps.compositions(K))
        for parts in range(1, K + 1):
            want = [m for m in every if len(m) == parts]
            assert list(verify.compositions(K, parts)) == want
    domain = verify.sweep_domain("thm22", 6)
    assert len(domain) == len({spec.mult for spec in domain}) == 63


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


def _plus_one(fn, only=None):
    """fn with one added to its value, over every argument or, given
    `only`, over the multiset with those multiplicities alone."""
    return lambda *args, **kw: fn(*args, **kw) + (only is None or args[0].mult == only)


# (check, --mult, module, name, corruption of module.name, the lines output,
# the one failure the JSON report names, the report's extra fields): one side
# of each agreement check is corrupted, and the check must fail at the case it ran
VERIFY_FAILURES = [
    ("thm12", "2,1", core, "_family_counts",
     lambda fn: lambda mult: fn(mult) + (((99, 0, 0), 1),) * (mult == (2, 1)),
     "FAIL thm12 (cases=2)", "distribution over 2,1 differs from 1,2", {}),
    ("thm13", "2,2", excedance, "exc", _plus_one,
     "FAIL thm13 (cases=1)", "histograms differ over 2,2", {}),
    ("coro14", "2,2", genfun, "max_descent_count", lambda fn: lambda spec: 999,
     "FAIL coro14 (cases=1) expected 999, got 3", "count over 2,2: expected 999, got 3",
     {"expected": 999, "got": 3, "report": "expected 999, got 3"}),
    ("coro15", "2,2", genfun, "qs_polynomial_from_series", _plus_one,
     "FAIL coro15 (cases=1)", "polynomials differ over 2,2", {}),
    ("eq2", "2,2", genfun, "qs_polynomial", _plus_one,
     "FAIL eq2 (cases=1)", "series sides differ over 2,2", {}),
    ("eq5", "2,2", genfun, "perm_tuple_polynomial_formula", _plus_one,
     "FAIL eq5 (cases=1)", "tuple polynomial differs at m=2, n=2", {}),
    ("eq7", "2,2", genfun, "perm_tuple_polynomial_formula", _plus_one,
     "FAIL eq7 (cases=1)", "anchored polynomial differs at m=2, n=2", {}),
]


def test_verify_failure_exits_one(capsys, monkeypatch):
    for check, mult, module, name, corrupt, line, failure, extras in VERIFY_FAILURES:
        argv = ("verify", "--check", check, "--mult", mult)
        with monkeypatch.context() as patch:
            patch.setattr(module, name, corrupt(getattr(module, name)))
            lines = run_cli(capsys, *argv, "--format", "lines")
            code, out, _ = run_cli(capsys, *argv)
        assert lines == (1, line + "\n", ""), check
        payload = json.loads(out)
        assert (code, payload["pass"], payload["failure_count"]) == (1, False, 1), check
        assert payload["failures"] == [failure], check
        common = {"check", "pass", "cases", "failure_count", "failures"}
        assert {k: v for k, v in payload.items() if k not in common} == extras, check
        # the check passes again once the corruption is lifted
        assert run_cli(capsys, *argv)[0] == 0, check


def test_verify_requires_check_or_suite(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == 2 and out == ""
    code, out, err = run_cli(capsys, "verify", "--check", "bogus")
    assert code == 2 and out == "" and "unknown check" in err


def test_verify_library_rejects_bad_arguments():
    # the CLI refuses these first; the library raised TypeError or KeyError
    for call in (
        lambda: verify.verify_suite(2.5),
        lambda: verify.verify_suite("3"),
        lambda: verify.sweep_domain("thm22", 2.0),
    ):
        with pytest.raises(ValueError, match="max_K must be an integer"):
            call()
    # run_check(["x"], ...) raised TypeError (unhashable), and sweep_domain
    # gave the multiset domain for a name that is no check
    for name, call in (
        ("'bogus'", lambda: verify.run_check("bogus", [], 8)),
        (r"\['x'\]", lambda: verify.run_check(["x"], [], 8)),
        ("'bogus'", lambda: verify.sweep_domain("bogus", 2)),
        ("None", lambda: verify.sweep_domain(None, 2)),
    ):
        with pytest.raises(ValueError, match="^unknown check %s; .*eq4, .*thm23, zeta$" % name):
            call()
    # compositions(0, 1) gave [(0,)], with no positive part; the others
    # raised TypeError or itertools' own message
    for args in ((3.0, 1), (None, 2), (3, 1.5)):
        with pytest.raises(ValueError, match="total and parts must be integers"):
            verify.compositions(*args)
    for args in ((0, 1), (3, 0)):
        with pytest.raises(ValueError, match="total and parts must be at least 1"):
            verify.compositions(*args)


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
    # each faulty kernel adds a value absent from every family, or one to
    # a count: exactly the checks that use it fail, none crashes
    append = lambda out: out + (99,)
    stray_path = lambda rep: rep._replace(paths=rep.paths + ((99,),))
    # a path with an ascent breaks both of eq4's identities, not the round trip alone
    stray_ascent = lambda rep: rep._replace(paths=rep.paths + ((98, 99),))
    stray_term = lambda terms: {**terms, (99, 0, 0): 1}
    stray_pair = lambda pairs: pairs + (((99, 0, 0), 1),)
    suite = ("--suite", "--max-K", "3")
    for owner, kernel, stray, argv, fails in (
        (bijections, "_phi", append, ("--check", "thm22", "--mult", "2,1"), ["thm22 (cases=3)"]),
        (bijections, "_transport", append, ("--check", "thm11", "--mult", "2,1"), ["thm11 (cases=3)"]),
        (bijections, "zeta", append, suite, ["zeta (cases=14)"]),
        (bijections, "_phi", append, suite, ["thm22 (cases=17)", "thm23 (cases=3)", "thm11 (cases=17)"]),
        (bijections, "_phi_inv", append, suite, ["thm22 (cases=17)"]),
        (bijections, "_transport", append, suite, ["thm23 (cases=3)", "thm11 (cases=17)"]),
        (bijections, "zeta_inv", append, suite, ["zeta (cases=14)"]),
        (excedance, "to_path_cycle", stray_path, suite, ["eq4 (cases=14)"]),
        (excedance, "to_path_cycle", stray_ascent, suite, ["eq4 (cases=14)"]),
        (excedance, "exc", lambda count: count + 1, suite, ["thm13 (cases=7)", "eq4 (cases=14)"]),
        (genfun, "_gap_insertion", stray_term, suite, ["coro15 (cases=7)", "eq5 (cases=6)", "eq7 (cases=6)"]),
        # the shared brute-force counts: patched themselves, as a patched
        # core.stats would hide behind counts cached by an earlier test
        (core, "_family_counts", stray_pair, suite, ["thm13 (cases=7)", "coro15 (cases=7)", "eq7 (cases=6)"]),
    ):
        real = getattr(owner, kernel)
        with monkeypatch.context() as patch:
            patch.setattr(owner, kernel, lambda *a, **kw: stray(real(*a, **kw)))
            code, out, err = run_cli(capsys, "verify", *argv, "--format", "lines")
        assert (code, err) == (1, ""), (kernel, argv, err)
        got = [line[5:] for line in out.splitlines() if line.startswith("FAIL ")]
        assert got == fails, (kernel, argv, out)
    # eq4 counts a failure per broken identity of each injection
    real = excedance.to_path_cycle
    for stray, failure_count in ((stray_path, 14), (stray_ascent, 28)):
        with monkeypatch.context() as patch:
            patch.setattr(excedance, "to_path_cycle", lambda s: stray(real(s)))
            code, out, _ = run_cli(capsys, "verify", *suite)
        (eq4,) = [entry for entry in json.loads(out)["checks"] if entry["name"] == "eq4"]
        assert (code, eq4["cases"], eq4["failure_count"]) == (1, 14, failure_count), out


def test_suite_vouches_for_count(monkeypatch):
    # thm22 compares qs_count, what `count` prints, with each family it
    # enumerates; no other check reads qs_count
    real = core.qs_count
    monkeypatch.setattr(core, "qs_count", lambda s: real(s) + (core._as_spec(s).n > 3))
    ok, report = verify.verify_suite(5)
    failed = {e["name"]: e["failure_count"] for e in report["checks"] if not e["pass"]}
    assert not ok
    assert failed == {"thm22": 6}  # the six multisets with K <= 5 and n > 3


def test_suite_vouches_for_the_state_count(monkeypatch):
    # qs_count and the enumerator's chunks read one count, core._completions:
    # off by one past three fresh values, it moves no word, and thm22 alone
    # fails, through qs_count
    mults = sweeps.all_mults(5) + [(1, 3, 1, 1, 3, 2)]
    words = {mult: list(core._enumerate_qs(mult)) for mult in mults}
    real = core._completions
    monkeypatch.setattr(core, "_completions", lambda r, c, f: real(r, c, f) + (f > 3))
    core._family_counts.cache_clear()
    try:
        assert all(list(core._enumerate_qs(mult)) == words[mult] for mult in mults)
        ok, report = verify.verify_suite(5)
    finally:
        core._family_counts.cache_clear()
    failed = {e["name"]: e["failure_count"] for e in report["checks"] if not e["pass"]}
    assert not ok
    assert failed == {"thm22": 6}


def test_brute_force_counts_are_taken_once_per_multiset():
    # thm12, thm13, coro14, coro15, eq2 and eq7 share core._family_counts:
    # each multiset's words are counted once, and the verdicts stay those
    # each check gave when it counted them itself
    core._family_counts.cache_clear()
    specs = set()
    for name in ("thm12", "thm13", "coro14", "coro15", "eq2", "eq7"):
        domain = verify.sweep_domain(name, 4)
        cases = 15 if name != "eq7" else 10
        assert verify.run_check(name, domain, verify.DEFAULT_ORDER) == (cases, []), name
        if name == "eq7":
            domain = [(m,) + (1,) * (n - 1) for m, n in domain]
        specs.update(core._as_spec(x).mult for x in domain)
    assert len(specs) == 15
    assert core._family_counts.cache_info().misses == len(specs)


def test_bijection_check_names_each_broken_property():
    # x -> x + 1 from range(5) onto {1..5}, broken one property at a time
    def check(
        forward=lambda x: x + 1,
        inverse=lambda y: y - 1,
        family=frozenset(range(1, 6)),
        same_stats=lambda x, y: True,
    ):
        tag = "x=%d".__mod__
        return verify._check_bijection(
            "inc", [(range(5), forward, inverse, family, same_stats, tag, "1..5")]
        )

    assert check() == (5, [])
    onto = "inc image over 1..5 is not the whole family"
    assert check(forward=lambda x: (1, 2, 3, 4, 9)[x]) == (
        5,
        ["inc image outside the family at x=4", onto],
    )
    assert check(same_stats=lambda x, y: x != 2) == (
        5,
        ["inc statistics changed at x=2"],
    )
    assert check(inverse=lambda y: (y - 1) % 4) == (
        5,
        ["inc round trip failed at x=4"],
    )
    assert check(family=frozenset(range(1, 7))) == (5, [onto])


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
        ("verify", "--check", "thm22", "--mult", ""),  # empty, not absent
        ("verify", "--check", "thm22", "--mult", "", "--max-K", "3"),
        ("verify", "--check", "thm23", "--mult", "3"),  # no value to shift
        ("verify", "--check", "thm23", "--max-K", "1"),
        ("verify", "--suite", "--check", "thm22", "--max-K", "3"),
        ("verify", "--suite", "--mult", "2,1", "--max-K", "3"),
        ("map", "--which", "psi:2", "--tree", "0(1(1))"),  # n < 2
        ("map", "--which", "psi-inv:x", "--tree", "0(1,2(2))"),
        # int() would read these as 1,1 and 10
        ("enumerate", "--mult", "\u0661,\u0661"),
        ("count", "--mult", "1_0"),
        ("map", "--which", "psi:+2", "--tree", "0(1,2(2))"),
        # and argparse's type=int read these as 3, 3 and 10
        ("verify", "--check", "thm22", "--max-K", "\u0663"),
        ("verify", "--check", "thm22", "--max-K", "+3"),
        ("verify", "--check", "eq2", "--mult", "2,1", "--order", "1_0"),
    ]
    # an operand or flag the run does not read is rejected, not ignored
    unread = [
        ("map", "--which", "phi", "--tree", "0(2(2),1)", "--perm", "5,5"),
        ("map", "--which", "phi", "--tree", "0(2(2),1)", "--mult", "9"),
        ("map", "--which", "Psi", "--tree", "0(2(2),1)", "--perm", "2,2,1"),
        ("map", "--which", "psi:2", "--tree", "0(2(2),1)", "--mult", "2,1"),
        ("map", "--which", "phi-inv", "--perm", "2,2,1", "--tree", "0(1)"),
        ("map", "--which", "Phi", "--perm", "2,2,1", "--mult", "2,1"),
        ("map", "--which", "Phi-inv", "--perm", "2,1,1", "--mult", "1,2", "--tree", "1"),
        ("map", "--which", "transport:1,2", "--perm", "2,2,1", "--mult", "2,1"),
        ("verify", "--check", "thm22", "--mult", "2,1", "--max-K", "9"),
        ("verify", "--check", "thm22", "--mult", "2,1", "--order", "3"),
        ("verify", "--check", "thm22", "--max-K", "3", "--order", "3"),
        ("verify", "--check", "eq2", "--mult", "2,1", "--max-K", "3"),
    ]
    cases += unread
    # a value far beyond the word's length is a gap, not a huge allocation
    for which in ("phi-inv", "Phi", "chi", "delta", "zeta-inv", "transport:1"):
        cases.append(("map", "--which", which, "--perm", "99999999999999999999"))
    # a family too large to index is refused before it is enumerated
    cases.append(("enumerate", "--mult", "99999999999999999999"))
    for check in verify.CHECKS:
        cases.append(("verify", "--check", check, "--mult", "2,99999999999999999999"))
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    for argv in unread:
        assert "does not read --" in run_cli(capsys, *argv)[2], argv


def test_two_number_check_refuses_another_multiset(capsys):
    assert run_cli(capsys, "verify", "--check", "eq5", "--mult", "1,2,3") == (
        2,
        "",
        "error: this check takes --mult m,n (two numbers)\n",
    )


def test_argparse_level_errors(capsys):
    code, out, _ = run_cli(capsys, "frobnicate")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "enumerate", "--bogus-flag", "1")
    assert code == 2 and out == ""
    code, _, _ = run_cli(capsys)
    assert code == 2


# every --help at COLUMNS=80, byte for byte
HELP = {
    ("--help",): (
        "usage: qstirling [-h] verb ...\n"
        "\n"
        "Quasi-Stirling words over multisets: enumeration, statistics, the tree\n"
        "correspondence, and identity verification.\n"
        "\n"
        "positional arguments:\n"
        "  verb\n"
        "    enumerate\n"
        "              list every word of a multiset\n"
        "    stats     statistics of one word or tree\n"
        "    poly      joint (des, asc, plat) polynomial\n"
        "    map       apply a named map to one object\n"
        "    verify    check one identity or the whole suite\n"
        "    count     closed-form family size K!/(K-n+1)!\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    ("enumerate", "--help"): (
        "usage: qstirling enumerate [-h] [--mult MULT] [--format {lines,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --mult MULT           multiplicities, e.g. 2,2,1\n"
        "  --format {lines,json}\n"
        "                        output format (default lines)\n"
    ),
    ("stats", "--help"): (
        "usage: qstirling stats [-h] [--perm PERM] [--tree TREE]\n"
        "                       [--format {lines,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --perm PERM           word or map operand in its wire format\n"
        "  --tree TREE           tree in the label(child,...) grammar\n"
        "  --format {lines,json}\n"
        "                        output format (default json)\n"
    ),
    ("poly", "--help"): (
        "usage: qstirling poly [-h] [--mult MULT] [--format {lines,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --mult MULT           multiplicities, e.g. 2,2,1\n"
        "  --format {lines,json}\n"
        "                        output format (default json)\n"
    ),
    ("map", "--help"): (
        "usage: qstirling map [-h] [--which WHICH] [--mult MULT] [--perm PERM]\n"
        "                     [--tree TREE] [--format {lines,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --which WHICH         phi|phi-inv|psi:<j>|psi-inv:<j>|Psi|Phi|Phi-\n"
        "                        inv|chi|chi-inv|delta|delta-inv|zeta|zeta-\n"
        "                        inv|transport:<mult>\n"
        "  --mult MULT           multiplicities, e.g. 2,2,1\n"
        "  --perm PERM           word or map operand in its wire format\n"
        "  --tree TREE           tree in the label(child,...) grammar\n"
        "  --format {lines,json}\n"
        "                        output format (default lines)\n"
    ),
    ("verify", "--help"): (
        "usage: qstirling verify [-h] [--check CHECK] [--suite] [--order ORDER]\n"
        "                        [--max-K MAX_K] [--mult MULT] [--format {lines,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --check CHECK         coro14|coro15|eq2|eq5|eq7|thm11|thm12|thm13|thm22|thm2\n"
        "                        3\n"
        "  --suite               run every identity family\n"
        "  --order ORDER         series truncation order (default 8)\n"
        "  --max-K MAX_K         sweep bound on the total size K (default 5)\n"
        "  --mult MULT           multiplicities, e.g. 2,2,1\n"
        "  --format {lines,json}\n"
        "                        output format (default json)\n"
    ),
    ("count", "--help"): (
        "usage: qstirling count [-h] [--mult MULT] [--format {lines,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --mult MULT           multiplicities, e.g. 2,2,1\n"
        "  --format {lines,json}\n"
        "                        output format (default json)\n"
    ),
}


def test_help_exits_zero(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, text in HELP.items():
        assert run_cli(capsys, *argv) == (0, text, ""), argv


def test_reused_parser_carries_nothing_between_calls(capsys, monkeypatch):
    orders = []
    monkeypatch.setitem(
        verify.CHECKS, "eq2", lambda specs, order: orders.append(order) or (1, [])
    )
    sequence = [
        ("frobnicate",),
        ("--help",),
        ("verify", "--help"),
        ("verify", "--check", "eq2", "--order", "3"),
        ("verify", "--check", "eq2"),  # the default order 8, not the 3 above
        ("map", "--which", "phi-inv", "--perm", "1,2,2,1", "--format", "json"),
        ("map", "--which", "phi-inv", "--perm", "1,2,2,1"),  # default: lines
        ("count", "--mult", "1", "x"),  # a trailing extra is refused
        ("enumerate", "--mul", "1,1"),  # an abbreviated option
        ("count", "--mult", "9", "--mult", "2,2"),  # the last --mult wins
    ]
    first = [run_cli(capsys, *argv) for argv in sequence]
    again = [run_cli(capsys, *argv) for argv in sequence]
    assert again == first
    assert orders == [3, 8, 3, 8]
    assert first[0][0] == 2 and "invalid choice" in first[0][2]
    assert first[1][0] == 0 and first[1][1].startswith("usage: qstirling")
    assert first[2][1].startswith("usage: qstirling verify")
    assert first[5][:2] == (0, '{"result": "0(1(1(2(2))))"}\n')
    assert first[6][:2] == (0, "0(1(1(2(2))))\n")
    assert first[7] == (
        2,
        "",
        "usage: qstirling [-h] verb ...\n"
        "qstirling: error: unrecognized arguments: x\n",
    )
    assert first[8] == (0, "1,2\n2,1\n", "")
    assert first[9] == (0, '{"K": 4, "count": 4, "mult": "2,2", "n": 2}\n', "")
    assert cli._build_parser() is cli._build_parser()


# argvs the plain reader leaves to argparse, one for each reason
DECLINED = [
    ["count", "--mult=1,2"],
    ["count", "--mu", "2,1"],
    ["count", "--mult", "9", "--mult", "2,2", "--format", "lines"],
    ["verify", "--suite", "--suite", "--max-K", "2"],
    ["count", "--mult", "-"],
    ["map", "--which", "Phi", "--perm", "-1"],
    ["count", "--mult", "--"],
    ["count", "--mult", "1", "--format", "xml"],
    ["count", "--mult"],
    ["count", "--mult", 1],
    ["count", "--mult", "1", "-h"],
    ["count", "--perm", "1"],
    ["--mult", "1", "enumerate"],
]
# each argv must give what the whole top-level route gives
PARSE_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    *([verb, "-h"] for verb in ("enumerate", "stats", "poly", "map", "verify", "count")),
    ["frobnicate"],
    ["enumerate", "--mul", "1,2"],
    ["count", "--mult", "2,1", "--f", "json"],
    ["count", "--mult", "1", "x"],
    ["count", "--mult", "1", "--", "x"],
    ["count", "--", "--mult", "1"],
    ["--", "count", "--mult", "1"],
    ["count", "--mult", ""],
    ["count", "--mult", "2,2"],
    ["map", "--which", "phi-inv", "--perm", "1,2,2,1"],
    ["stats", "--perm", "1,2,2,1", "--format", "lines"],
    ["poly", "--mult", "2,1"],
    ["verify", "--check", "eq5", "--mult", "2,3"],
    ["verify", "--format", "lines", "--max-K", "2", "--suite"],
    ["enumerate", "--bogus-flag", "1"],
    *DECLINED,
]


def test_plain_reader_declines_what_argparse_reads_otherwise():
    for argv in DECLINED:
        assert cli._plain_args(argv) is None, argv


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(map(str, argv)))
def test_plain_reader_matches_the_top_level_route(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    plain = cli._plain_args(argv)
    if plain is not None:
        assert plain == cli._build_parser().parse_args(argv)
    first = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    assert run_cli(capsys, *argv) == first


NOT_STRINGS = [["count", "--mult", 1], ["count", 1], [1], [None], [["count"], "--mult", "1"]]


@pytest.mark.parametrize("argv", NOT_STRINGS, ids=repr)
def test_arguments_that_are_not_strings_exit_two(capsys, argv):
    assert cli._plain_args(argv) is None
    assert run_cli(capsys, *argv) == (2, "", "error: every argument must be a string\n")


def test_plain_call_builds_no_parser(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain call")

    cli._build_parser.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        code, out, _ = run_cli(capsys, "count", "--mult", "2,2")
    assert (code, out) == (0, '{"K": 4, "count": 4, "mult": "2,2", "n": 2}\n')
    assert cli._build_parser.cache_info().currsize == 0
    assert run_cli(capsys, "--help")[0] == 0
    assert cli._build_parser.cache_info().currsize == 1


# each verb's flags, spelled out apart from the table in cli
FLAGS = {
    "enumerate": ["--mult", "--format"],
    "stats": ["--perm", "--tree", "--format"],
    "poly": ["--mult", "--format"],
    "map": ["--which", "--mult", "--perm", "--tree", "--format"],
    "verify": ["--check", "--suite", "--order", "--max-K", "--mult", "--format"],
    "count": ["--mult", "--format"],
}
VALUES = ["", "-", "-1", "--", "x", "json", "xml", "lines", "2,2", "1,2,2,1", "١,2", "é"]


def _random_argv(rng):
    argv = [rng.choice([*FLAGS] * 8 + ["frobnicate", "--help", "-h", "--mult"])]
    flags = FLAGS.get(argv[0], ["--mult"])
    for _ in range(rng.randrange(5)):
        kind = rng.random()
        if kind < 0.7:
            flag = rng.choice(flags)
        elif kind < 0.85:
            flag = rng.choice(flags)[: rng.randrange(2, 7)]  # an abbreviation
        else:
            flag = rng.choice([*FLAGS["verify"], *FLAGS["map"], "-h", "--bogus"])
        if rng.random() < 0.1:
            argv.append("%s=%s" % (flag, rng.choice(VALUES)))
        elif flag == "--suite" or rng.random() < 0.1:
            argv.append(flag)  # no value, or none where one is due
        else:
            argv += [flag, rng.choice(VALUES)]
    if rng.random() < 0.02:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice([1, None, b"x", ["x"]]))
    return argv


def test_plain_reader_agrees_with_argparse_on_random_argv():
    # parse only: the plain reader gives exactly the Namespace of the
    # top-level parse, or leaves the argv to it
    rng = random.Random(2021)
    parser = cli._build_parser()
    accepted = 0
    for _ in range(2000):
        argv = _random_argv(rng)
        quiet = io.StringIO()
        try:
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                want = parser.parse_args(argv)
        except (SystemExit, TypeError):
            want = None
        got = cli._plain_args(argv)
        assert got is None or got == want, argv
        accepted += got is not None
    assert accepted >= 400


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

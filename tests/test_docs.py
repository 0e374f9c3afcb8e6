"""The demos run, the README's command-line examples print what the
README says they print, the README names each map of the `map` table
and the flags it reads, the test oracles import nothing from the
package, no parser but core._numbers runs int(), every check runs one
of verify's shared loops, the acceptance criteria call every check of
the suite, excedance imports nothing from bijections, and every name
the benchmark tracer wraps exists."""

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qstirling import cli, verify

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_examples():
    """(argv, expected stdout) for each `$ qstirling ...` example in the
    README's fenced blocks, up to the next blank line; an example that
    elides its output with `...` is skipped."""
    text = (ROOT / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"\n\s*\n", block):
            command, *output = chunk.strip("\n").split("\n")
            if command.startswith("$ qstirling ") and "..." not in output:
                argv = shlex.split(command)[2:]
                examples.append((argv, "".join(line + "\n" for line in output)))
    return examples


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_cli_examples(capsys):
    examples = readme_examples()
    assert len(examples) >= 9
    for argv, expected in examples:
        code = cli.run(argv)
        out = capsys.readouterr().out
        assert (code, out) == (0, expected), argv


def test_readme_names_the_map_table():
    # the `map --which` paragraph lists the rows of cli._MAPS in order,
    # each with what its name takes after ":", and says which flags they read
    text = (ROOT / "README.md").read_text()
    (paragraph,) = re.findall(r"^`map --which` accepts (.*?)\n\n", text, re.M | re.S)
    paragraph = " ".join(paragraph.split())

    def maps(part):
        return [name for name in re.findall(r"`([^`]+)`", part) if not name.startswith("-")]

    def rows(flag):
        return [k + v[0] for k, v in cli._MAPS.items() if flag in v[1]]

    listed, _, rest = paragraph.partition(". ")
    assert maps(listed) == [k + v[0] for k, v in cli._MAPS.items()]
    tree, _, rest = rest.partition(" read `--tree`, every other map reads `--perm`,")
    assert maps(tree.rpartition(". ")[2]) == rows("tree")
    assert all(("tree" in v[1]) != ("perm" in v[1]) for v in cli._MAPS.values())
    assert rest.startswith(" and only `Phi-inv` reads `--mult`")
    assert rows("mult") == ["Phi-inv"]


def imported_names(path):
    """Every module and name the file at path imports."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported.extend(alias.name for alias in node.names)
    return imported


def test_oracles_stay_independent_of_the_package():
    imported = imported_names(ROOT / "tests" / "oracles.py")
    assert imported  # the walk saw the imports
    assert not [name for name in imported if "qstirling" in name.split(".")]


def test_package_functions_never_call_themselves():
    # the README promises that the maps, enumeration and the tree text
    # form run on explicit stacks: no function may call its own name
    defined = 0
    recursive = []
    for path in sorted((ROOT / "src" / "qstirling").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined += 1
                recursive.extend(
                    "%s:%s" % (path.name, node.name)
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == node.name
                )
    assert defined > 100  # the walk saw the package
    assert not recursive


def test_only_the_number_reader_runs_int():
    # int() reads '\u0663', '1_0' and '+2' as numbers: a parser that calls
    # it, or hands it to map() or argparse, skips the rule of
    # core._numbers; tree labels and exact Fractions have rules of their own
    allowed = {"core._numbers", "trees._parse_label", "exactpoly._norm"}
    found = set()
    for path in sorted((ROOT / "src" / "qstirling").glob("*.py")):
        # (node, dotted name of the innermost enclosing def or class)
        stack = [(ast.parse(path.read_text()), path.stem)]
        while stack:
            node, owner = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = "%s.%s" % (owner, node.name)
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") != "isinstance":
                passed = [node.func, *node.args, *(k.value for k in node.keywords)]
                if any(getattr(x, "id", None) == "int" for x in passed):
                    found.add(owner)
            stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    assert found == allowed


def test_every_check_runs_a_shared_loop():
    # every check calls one of the shared loops, so a new hand-written
    # loop fails here
    loops = {"_check_bijection", "_check_agree"}
    tree = ast.parse((ROOT / "src" / "qstirling" / "verify.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    checks = [
        value.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] in (["CHECKS"], ["SUITE_EXTRAS"])
        for value in node.value.values
    ]
    assert len(checks) == 12  # the walk found both tables

    def called(name):
        return {
            getattr(node.func, "id", None)
            for node in ast.walk(defs[name])
            if isinstance(node, ast.Call)
        }

    assert {name for name in checks if not called(name) & loops} == set()


def test_acceptance_criteria_call_every_check():
    # a criterion that sweeps an identity calls the CLI's own check, so
    # one that goes back to a hand-written loop fails here
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    called = {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) == "verify"
    }
    assert {*verify.CHECKS, *verify.SUITE_EXTRAS} - called == set()


def test_excedance_imports_nothing_from_bijections():
    # chi and delta read their words through core._flat_word, so the
    # excedance maps depend on core alone, not on the tree/word maps
    imported = imported_names(ROOT / "src" / "qstirling" / "excedance.py")
    assert "core" in imported  # the walk saw the imports
    assert not [name for name in imported if "bijections" in name.split(".")]


def test_benchmark_trace_targets_exist():
    # perfbench/tracer.py wraps these names by lookup; read its TARGETS
    # without importing it, so a deleted name fails here too
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    targets = ast.literal_eval(targets)
    assert len(targets) > 30  # the walk found the table
    missing = []
    for module, attr, _, _ in targets:
        mod = importlib.import_module("qstirling." + module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            if meth not in vars(getattr(mod, cls_name, object)):
                missing.append("%s.%s" % (module, attr))
        elif not hasattr(mod, attr):
            missing.append("%s.%s" % (module, attr))
    assert not missing

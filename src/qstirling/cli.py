"""Command-line surface.

Six verbs: enumerate (list the words of a multiset), stats (statistics
of one word or tree), poly (the joint statistic polynomial), map (apply
one of the named maps), verify (check one identity or run the whole
suite), count (closed-form family size). Output is deterministic;
enumerate and map print plain lines by default, the data-shaped verbs
print JSON. The identity checks themselves live in `verify`.

Exit codes: 0 success; 1 a verified identity failed; 2 invalid input,
including a check, or a family of the suite, that has no case to run;
3 an unexpected error inside the package.
"""

import argparse
import functools
import json
import signal
import sys

from . import bijections, core, excedance, genfun, trees, verify
from .exactpoly import _decimal

_DEFAULT_MAX_K = 5


def _require(value, flag):
    if value is None:
        raise ValueError("%s is required here" % flag)
    return value


def _integer(text, what, whole=None):
    """The one integer in text, read as the wire forms read numbers."""
    numbers = core._numbers(text, what, whole)
    if len(numbers) != 1:
        whole = text if whole is None else whole
        raise ValueError("bad %s %r (expected one integer)" % (what, whole))
    return numbers[0]


def _parse_inj(text):
    if text.startswith("<") or text.startswith("("):
        return excedance.from_path_cycle(excedance.parse_path_cycle(text))
    return excedance.PartialInj.from_text(text)


_encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(_, sort_keys=True)


def _emit(args, payload, line):
    """Write the payload as JSON, or the line as text, per --format, and
    a newline, in one write. An int past the digit limit of str() is
    written in full all the same."""
    try:
        text = _encode(payload) if args.format == "json" else str(line)
    except ValueError:  # str() refuses such an int: write its digits
        if args.format == "json":  # a top-level int field, unquoted
            ints = {k: "\0%s\0" % _decimal(v) for k, v in payload.items() if type(v) is int}
            text = _encode({**payload, **ints})
            text = text.replace('"\\u0000', "").replace('\\u0000"', "")
        else:
            text = _decimal(line)
    sys.stdout.write(text + "\n")


def _verdict_line(ok, name, cases):
    return "%s %s (cases=%d)" % ("PASS" if ok else "FAIL", name, cases)


def _cmd_enumerate(args):
    spec = core.MultisetSpec.from_text(_require(args.mult, "--mult"))
    # the search writes each letter as ",v", so a word is its text, and
    # yields whole words in chunks joined by sep; both formats are the
    # stream lead + sep.join(chunks) + end, written as the chunks come,
    # gathered until they hold 32 KB, so each write holds whole words
    unit = [",%d" % v for v in range(spec.n + 1)]
    if args.format == "json":
        lead, sep, end = '["', '", "', '"]\n'
    else:
        lead, sep, end = "", "\n", "\n"
    parts, size = [], 0
    for chunk in core._enumerate_qs(spec.mult, unit, sep):
        parts.append(chunk)
        size += len(chunk)
        if size >= 1 << 15:
            sys.stdout.write(lead + sep.join(parts))
            lead, parts, size = sep, [], 0  # each later write follows a sep
    sys.stdout.write(lead + sep.join(parts) + end if parts else end)
    return 0


def _cmd_stats(args):
    if (args.perm is None) == (args.tree is None):
        raise ValueError("exactly one of --perm or --tree is required")
    if args.perm is not None:
        result = core.stats(core.word_from_text(args.perm))
    else:
        t = trees.parse_tree(args.tree)
        trees.infer_spec(t)
        result = trees.tree_stats(t)
    payload = result._asdict()
    _emit(args, payload, " ".join("%s=%d" % item for item in payload.items()))
    return 0


def _cmd_poly(args):
    spec = core.MultisetSpec.from_text(_require(args.mult, "--mult"))
    poly = genfun.qs_polynomial_from_series(spec)
    _emit(args, poly.to_json_obj(), poly.pretty())
    return 0


def _cmd_count(args):
    spec = core.MultisetSpec.from_text(_require(args.mult, "--mult"))
    count = core.qs_count(spec)
    payload = {"mult": spec.to_text(), "n": spec.n, "K": spec.K, "count": count}
    _emit(args, payload, count)
    return 0


# Every map by name: what the name takes after ":" in --which, the flags
# it reads in order, and its call on those flags' texts and then the
# parameter. The calls reach each package function through its module
# when they run, so a function patched into the module is the one called
_MAPS = {
    "phi": ("", ("tree",), lambda t, _: core._text(
        bijections.phi(trees.parse_tree(t)))),
    "phi-inv": ("", ("perm",), lambda w, _: trees.render_tree(
        bijections.phi_inv(core.word_from_text(w)))),
    "psi": (":<j>", ("tree",), lambda t, j: trees.render_tree(
        bijections.psi(trees.parse_tree(t), j))),
    "psi-inv": (":<j>", ("tree",), lambda t, j: trees.render_tree(
        bijections.psi_inv(trees.parse_tree(t), j))),
    "Psi": ("", ("tree",), lambda t, _: trees.render_tree(
        bijections.big_psi(trees.parse_tree(t)))),
    "Phi": ("", ("perm",), lambda w, _: core._text(
        bijections.big_phi(core.word_from_text(w)))),
    "Phi-inv": ("", ("perm", "mult"), lambda w, m, _: core._text(
        bijections.big_phi_inv(core.word_from_text(w), core.MultisetSpec.from_text(m)))),
    "chi": ("", ("perm",), lambda w, _: excedance._render_groups(
        *excedance.to_path_cycle(excedance.chi(core.word_from_text(w))))),
    "chi-inv": ("", ("perm",), lambda s, _: core._text(
        excedance.chi_inv(_parse_inj(s)))),
    "delta": ("", ("perm",), lambda w, _: excedance._render_groups(
        *excedance.to_path_cycle(excedance.delta(core.word_from_text(w))))),
    "delta-inv": ("", ("perm",), lambda s, _: core._text(
        excedance.delta_inv(_parse_inj(s)))),
    "zeta": ("", ("perm",), lambda a, _: core._text(
        bijections.zeta(bijections.perm_tuple_from_text(a)))),
    "zeta-inv": ("", ("perm",), lambda w, _: "|".join(map(core._text,
        bijections.zeta_inv(core.word_from_text(w))))),
    "transport": (":<mult>", ("perm",), lambda w, target: core._text(
        bijections.transport(core.word_from_text(w), target))),
}


def _cmd_map(args):
    which = _require(args.which, "--which")
    name, colon, param = which.partition(":")
    row = _MAPS.get(name)
    if row is None or (not colon) != (not row[0]):
        raise ValueError("unknown map %r" % which)
    suffix, reads, call = row
    for flag in ("mult", "perm", "tree"):
        if flag not in reads and getattr(args, flag) is not None:
            raise ValueError("map %s does not read --%s" % (which, flag))
    # the parameter is read first, then the operands in the row's order
    if suffix == ":<j>":
        param = _integer(param, "j in map", which)
    elif suffix:
        param = core.MultisetSpec.from_text(param)
    texts = [_require(getattr(args, flag), "--" + flag) for flag in reads]
    out = call(*texts, param)
    _emit(args, {"result": out}, out)
    return 0


def _domain(check, mult, max_K):
    """What the check runs over: the object --mult names, else the
    sweep up to --max-K."""
    if mult is None:
        return verify.sweep_domain(check, max_K)
    spec = core.MultisetSpec.from_text(mult)
    if check in ("eq5", "eq7"):
        if spec.n != 2:
            raise ValueError("this check takes --mult m,n (two numbers)")
        return [spec.mult]
    if check == "thm12":
        return [core.MultisetSpec(m) for m in verify.compositions(spec.K, spec.n)]
    return [spec]


def _cmd_verify(args):
    # --max-K and --order default to None so that a flag the run would
    # not read is rejected rather than ignored
    max_K = _DEFAULT_MAX_K if args.max_K is None else _integer(args.max_K, "--max-K")
    order = verify.DEFAULT_ORDER if args.order is None else _integer(args.order, "--order")
    if max_K < 1:
        raise ValueError("--max-K must be at least 1")
    if order < 0:
        raise ValueError("--order must be non-negative")
    if args.suite:
        if args.check is not None or args.mult is not None:
            raise ValueError("--suite takes neither --check nor --mult")
        ok, report = verify.verify_suite(max_K, order)
        checks = report["checks"]
        lines = [_verdict_line(e["pass"], e["name"], e["cases"]) for e in checks]
        _emit(args, report, "\n".join(lines + ["PASS" if ok else "FAIL"]))
        return 0 if ok else 1
    check = _require(args.check, "--check (or --suite)")
    verify._check_named(check, verify.CHECKS)
    if args.max_K is not None and args.mult is not None:
        raise ValueError("check %s over --mult does not read --max-K" % check)
    if args.order is not None and check != "eq2":
        raise ValueError("check %s does not read --order" % check)
    domain = _domain(check, args.mult, max_K)
    cases, failures = verify.run_check(check, domain, order)
    ok, details = verify.verdict(cases, failures)
    line = _verdict_line(ok, check, cases)
    if check == "coro14" and args.mult is not None:
        # the brute-force count is a cache hit; the closed form is recomputed
        expected, got = verify.coro14_counts(domain[0])
        report = "expected %d, got %d" % (expected, got)
        details.update(expected=expected, got=got, report=report)
        line += " " + report
    _emit(args, {"check": check, "pass": ok, **details}, line)
    return 0 if ok else 1


def _format(default):
    keywords = dict(dest="format", choices=("lines", "json"), default=default)
    return {"--format": dict(keywords, help="output format (default %(default)s)")}


# The one spec of the command line: each verb's help, command and options
# in order, each option its flag and add_argument's keywords. _build_parser
# reads it for help, usage and errors; _plain_args reads it for the calls
# that need neither
_MULT = {"--mult": dict(dest="mult", help="multiplicities, e.g. 2,2,1")}
_PERM = {"--perm": dict(dest="perm", help="word or map operand in its wire format")}
_TREE = {"--tree": dict(dest="tree", help="tree in the label(child,...) grammar")}
_WHICH = {"--which": dict(dest="which", help="|".join(k + v[0] for k, v in _MAPS.items()))}
_CHECKS = {
    "--check": dict(dest="check", help="|".join(sorted(verify.CHECKS))),
    "--suite": dict(
        dest="suite", action="store_true", default=False, help="run every identity family"
    ),
    "--order": dict(
        dest="order", help="series truncation order (default %d)" % verify.DEFAULT_ORDER
    ),
    "--max-K": dict(
        dest="max_K", help="sweep bound on the total size K (default %d)" % _DEFAULT_MAX_K
    ),
}
_VERBS = {
    "enumerate": ("list every word of a multiset", _cmd_enumerate, _MULT | _format("lines")),
    "stats": ("statistics of one word or tree", _cmd_stats, _PERM | _TREE | _format("json")),
    "poly": ("joint (des, asc, plat) polynomial", _cmd_poly, _MULT | _format("json")),
    "map": (
        "apply a named map to one object",
        _cmd_map,
        _WHICH | _MULT | _PERM | _TREE | _format("lines"),
    ),
    "verify": (
        "check one identity or the whole suite",
        _cmd_verify,
        _CHECKS | _MULT | _format("json"),
    ),
    "count": ("closed-form family size K!/(K-n+1)!", _cmd_count, _MULT | _format("json")),
}
# each verb's arguments before its flags are read, as argparse sets them
_DEFAULTS = {
    verb: {"verb": verb, "fn": fn, **{kw["dest"]: kw.get("default") for kw in options.values()}}
    for verb, (_, fn, options) in _VERBS.items()
}


@functools.cache
def _build_parser():
    # built once per process, for the first argv _plain_args declines:
    # parsing keeps no state in it and gives each call a fresh Namespace
    parser = argparse.ArgumentParser(
        prog="qstirling",
        description=(
            "Quasi-Stirling words over multisets: enumeration, statistics, "
            "the tree correspondence, and identity verification."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for verb, (help, fn, options) in _VERBS.items():
        p = sub.add_parser(verb, help=help)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(fn=fn)
    return parser


def _plain_args(argv):
    """The Namespace the top-level parser makes of argv, when argv is a
    verb and its own flags by their whole names, each at most once and
    each but --suite with a string value that does not start with "-";
    None for any other argv."""
    try:
        options = _VERBS[argv[0]][2]
    except (IndexError, KeyError, TypeError):
        return None
    args = _DEFAULTS[argv[0]].copy()
    unseen = dict(options)
    rest = iter(argv[1:])
    for flag in rest:
        keywords = unseen.pop(flag, None) if type(flag) is str else None
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            value = True
        else:
            value = next(rest, None)
            if type(value) is not str or value.startswith("-"):
                return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        args[keywords["dest"]] = value
    namespace = argparse.Namespace()
    vars(namespace).update(args)  # what Namespace(**args) sets, one by one
    return namespace


def run(argv):
    """Parse argv (without the program name) and execute; returns the
    exit code instead of exiting, so it can be driven in-process.

    An argv that is a verb and its own flags, each given once with a
    plain value, is read from the option table alone, and no parser is
    built; any other argv goes to the argparse parser, built once per
    process on the first such call, so help, usage and errors are
    argparse's. No value set by one call carries into the next."""
    args = _plain_args(argv)
    if args is None:
        if not all(isinstance(arg, str) for arg in argv or ()):
            print("error: every argument must be a string", file=sys.stderr)
            return 2
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:
            return 0 if e.code in (0, None) else 2
    try:
        return args.fn(args)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:  # exit 1 is reserved for a failed identity
        print("error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3


def main():
    if hasattr(signal, "SIGPIPE"):
        # a reader that closes the pipe early (`| head`) ends the process
        # quietly, as it would any filter, rather than as a crash in run()
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

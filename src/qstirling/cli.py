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
import json
import signal
import sys

from . import bijections, core, excedance, trees, verify


def _require(value, flag):
    if value is None:
        raise ValueError("%s is required here" % flag)
    return value


def _parse_inj(text):
    if text.startswith("<") or text.startswith("("):
        return excedance.from_path_cycle(excedance.parse_path_cycle(text))
    return excedance.PartialInj.from_text(text)


def _emit_json(obj):
    print(json.dumps(obj, sort_keys=True))


def _emit(args, payload, line):
    """Print the payload as JSON, or the line as text, per --format."""
    if args.format == "json":
        _emit_json(payload)
    else:
        print(line)


def _verdict_line(ok, name, cases):
    return "%s %s (cases=%d)" % ("PASS" if ok else "FAIL", name, cases)


def _cmd_enumerate(args):
    spec = core.MultisetSpec.from_text(_require(args.mult, "--mult"))
    words = (core.word_to_text(w) for w in core.enumerate_qs(spec))
    if args.format == "json":
        _emit_json(list(words))
    else:
        for line in words:
            print(line)
    return 0


def _cmd_stats(args):
    if (args.perm is None) == (args.tree is None):
        raise ValueError("exactly one of --perm or --tree is required")
    if args.perm is not None:
        word = core.word_from_text(args.perm)
        st = core.stats(word)
        payload = st._asdict()
        line = "asc=%d des=%d plat=%d" % (st.asc, st.des, st.plat)
    else:
        t = trees.parse_tree(args.tree)
        trees.infer_spec(t)
        ts = trees.tree_stats(t)
        payload = ts._asdict()
        line = "cdes=%d casc=%d eleaf=%d first=%d last=%d" % ts
    _emit(args, payload, line)
    return 0


def _cmd_poly(args):
    spec = core.MultisetSpec.from_text(_require(args.mult, "--mult"))
    poly = core.qs_polynomial(spec)
    _emit(args, poly.to_json_obj(), poly.pretty())
    return 0


def _cmd_count(args):
    spec = core.MultisetSpec.from_text(_require(args.mult, "--mult"))
    count = core.qs_count(spec)
    payload = {"mult": spec.to_text(), "n": spec.n, "K": spec.K, "count": count}
    _emit(args, payload, count)
    return 0


def _cmd_map(args):
    which = _require(args.which, "--which")
    if which == "phi":
        t = trees.parse_tree(_require(args.tree, "--tree"))
        out = core.word_to_text(bijections.phi(t))
    elif which == "phi-inv":
        w = core.word_from_text(_require(args.perm, "--perm"))
        out = trees.render_tree(bijections.phi_inv(w))
    elif which.startswith("psi:") or which.startswith("psi-inv:"):
        token, _, jtext = which.partition(":")
        j = int(jtext)
        t = trees.parse_tree(_require(args.tree, "--tree"))
        fn = bijections.psi if token == "psi" else bijections.psi_inv
        out = trees.render_tree(fn(t, j))
    elif which == "Psi":
        t = trees.parse_tree(_require(args.tree, "--tree"))
        out = trees.render_tree(bijections.big_psi(t))
    elif which == "Phi":
        w = core.word_from_text(_require(args.perm, "--perm"))
        out = core.word_to_text(bijections.big_phi(w))
    elif which == "Phi-inv":
        w = core.word_from_text(_require(args.perm, "--perm"))
        target = core.MultisetSpec.from_text(_require(args.mult, "--mult"))
        out = core.word_to_text(bijections.big_phi_inv(w, target))
    elif which in ("chi", "delta"):
        w = core.word_from_text(_require(args.perm, "--perm"))
        fn = excedance.chi if which == "chi" else excedance.delta
        out = excedance.render_path_cycle(excedance.to_path_cycle(fn(w)))
    elif which in ("chi-inv", "delta-inv"):
        s = _parse_inj(_require(args.perm, "--perm"))
        fn = excedance.chi_inv if which == "chi-inv" else excedance.delta_inv
        out = core.word_to_text(fn(s))
    elif which == "zeta":
        a = bijections.perm_tuple_from_text(_require(args.perm, "--perm"))
        out = core.word_to_text(bijections.zeta(a))
    elif which == "zeta-inv":
        w = core.word_from_text(_require(args.perm, "--perm"))
        out = bijections.perm_tuple_to_text(bijections.zeta_inv(w))
    elif which.startswith("transport:"):
        target = core.MultisetSpec.from_text(which.partition(":")[2])
        w = core.word_from_text(_require(args.perm, "--perm"))
        out = core.word_to_text(bijections.transport(w, target))
    else:
        raise ValueError("unknown map %r" % which)
    _emit(args, {"result": out}, out)
    return 0


def _domain(check, args):
    """What the check runs over: the object --mult names, else the
    sweep up to --max-K."""
    if not args.mult:
        return verify.sweep_domain(check, args.max_K)
    spec = core.MultisetSpec.from_text(args.mult)
    if check in ("eq5", "eq7"):
        if spec.n != 2:
            raise ValueError("this check takes --mult m,n (two numbers)")
        return [spec.mult]
    if check == "thm12":
        return [core.MultisetSpec(m) for m in verify.compositions(spec.K, spec.n)]
    return [spec]


def _cmd_verify(args):
    if args.max_K < 1:
        raise ValueError("--max-K must be at least 1")
    if args.order < 0:
        raise ValueError("--order must be non-negative")
    if args.suite:
        ok, report = verify.verify_suite(args.max_K, args.order)
        checks = report["checks"]
        lines = [_verdict_line(e["pass"], e["name"], e["cases"]) for e in checks]
        _emit(args, report, "\n".join(lines + ["PASS" if ok else "FAIL"]))
        return 0 if ok else 1
    check = _require(args.check, "--check (or --suite)")
    if check not in verify.CHECKS:
        raise ValueError(
            "unknown check %r; choose one of %s"
            % (check, ", ".join(sorted(verify.CHECKS)))
        )
    domain = _domain(check, args)
    counts = None
    if check == "coro14" and args.mult:
        expected, got, failures = verify.max_descent_check(domain[0])
        cases, counts = 1, dict(expected=expected, got=got)
    else:
        cases, failures = verify.run_check(check, domain, args.order)
    ok, details = verify.verdict(cases, failures)
    line = _verdict_line(ok, check, cases)
    if counts:
        details.update(counts, report="expected %(expected)d, got %(got)d" % counts)
        line += " " + details["report"]
    _emit(args, {"check": check, "pass": ok, **details}, line)
    return 0 if ok else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qstirling",
        description=(
            "Quasi-Stirling words over multisets: enumeration, statistics, "
            "the tree correspondence, and identity verification."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def common(p, *, mult=False, perm=False, tree=False, default_fmt="json"):
        if mult:
            p.add_argument("--mult", help="multiplicities, e.g. 2,2,1")
        if perm:
            p.add_argument("--perm", help="word or map operand in its wire format")
        if tree:
            p.add_argument("--tree", help="tree in the label(child,...) grammar")
        p.add_argument(
            "--format",
            choices=("lines", "json"),
            default=default_fmt,
            help="output format (default %(default)s)",
        )

    p = sub.add_parser("enumerate", help="list every word of a multiset")
    common(p, mult=True, default_fmt="lines")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("stats", help="statistics of one word or tree")
    common(p, perm=True, tree=True)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("poly", help="joint (des, asc, plat) polynomial")
    common(p, mult=True)
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("map", help="apply a named map to one object")
    p.add_argument(
        "--which",
        help=(
            "phi|phi-inv|psi:<j>|psi-inv:<j>|Psi|Phi|Phi-inv|chi|chi-inv|"
            "delta|delta-inv|zeta|zeta-inv|transport:<mult>"
        ),
    )
    common(p, mult=True, perm=True, tree=True, default_fmt="lines")
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("verify", help="check one identity or the whole suite")
    p.add_argument("--check", help="|".join(sorted(verify.CHECKS)))
    p.add_argument("--suite", action="store_true", help="run every identity family")
    p.add_argument(
        "--order",
        type=int,
        default=verify.DEFAULT_ORDER,
        help="series truncation order (default %(default)s)",
    )
    p.add_argument(
        "--max-K",
        dest="max_K",
        type=int,
        default=5,
        help="sweep bound on the total size K (default %(default)s)",
    )
    common(p, mult=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("count", help="closed-form family size K!/(K-n+1)!")
    common(p, mult=True)
    p.set_defaults(fn=_cmd_count)

    return parser


def run(argv):
    """Parse argv (without the program name) and execute; returns the
    exit code instead of exiting, so it can be driven in-process."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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

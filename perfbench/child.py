"""One repetition of a workload, in a fresh interpreter.

run.py starts this script once per repetition, so that no in-process
cache (such as the lru_cache on genfun.eulerian) carries over from one
repetition to the next, just as every CLI invocation starts cold. It
imports qstirling from ./src, builds and validates the seeded inputs,
runs the workload's operations once, one at a time, checks each output
outside the timed region, and prints one JSON line with the timings.
Between operations, untimed, a short fixed gauge loop runs at least
every GAUGE_EVERY_S and once after the last, so that run.py can tell how
fast the machine ran while each operation did.

    python3 perfbench/child.py --workload maps --seed 1 --trace 0 \\
        --spawned-at <perf_counter() just before the start> --out-dir <dir>
"""

import argparse
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

MODULES = ("cli", "core", "trees", "bijections", "excedance", "genfun", "exactpoly")
KEEP_OUTPUT_BYTES = 1 << 20  # later ops may read outputs up to this size
GAUGE_EVERY_S = 0.02  # a reading costs ~2.5 ms; the host's speed shifts over seconds


class Spool:
    """Stands in for stdout while an operation runs. It counts and hashes
    the bytes the CLI prints and passes them on to a file, so the output
    is never held in memory; the checks read the file back afterwards."""

    def __init__(self, path):
        self.file = open(path, "w+", encoding="ascii", newline="")
        self.bytes = 0
        self.digest = hashlib.sha256()

    def write(self, s):
        data = s.encode("ascii")
        self.bytes += len(data)
        self.digest.update(data)
        return self.file.write(s)

    def flush(self):
        self.file.flush()

    def reset(self):
        self.file.seek(0)
        self.file.truncate()

    def text(self):
        self.file.seek(0)
        return self.file.read()

    def lines(self):
        self.file.seek(0)
        return iter(self.file)

    def close(self):
        self.file.close()


def import_package():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import qstirling
    import qstirling.cli

    return qstirling, {name: getattr(qstirling, name) for name in MODULES}


def gauge_s():
    """Seconds for a fixed pure-Python loop that touches no package code:
    how fast the machine runs Python at this moment."""
    t0 = perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    return perf_counter() - t0


def run_pass(ops, modules, spool, tracer=None):
    """Run every op once; time each call, then check its output. Each
    timed op also gets the mean of the gauge readings just before and
    just after it."""
    outs = {}
    op_s = []
    failed = wrong = 0
    reasons = []
    gauges = []
    gauge_before = []  # per timed op, the index of the reading before it
    last_gauge = None
    for idx, op in enumerate(ops):
        if last_gauge is None or perf_counter() - last_gauge >= GAUGE_EVERY_S:
            gauges.append(gauge_s())
            last_gauge = perf_counter()
        if any(k not in outs for k in op.needs):
            failed += 1
            reasons.append("%s: its input op failed" % op.key)
            continue
        call = op.make(outs)
        if call[0] == "cli":
            fn, args = modules["cli"].run, (call[1],)
        else:
            fn, args = getattr(modules[call[1]], call[2]), call[3]
        spool.reset()
        before = spool.bytes
        if tracer is not None:
            tracer.op_id = idx
        sys.stdout = spool
        t0 = perf_counter()
        try:
            result = fn(*args)
            spool.flush()
            error = None
        except Exception as e:  # an operation that raises counts as failed
            error = "%s: %s" % (type(e).__name__, str(e)[:100])
        t1 = perf_counter()
        sys.stdout = sys.__stdout__
        op_s.append(t1 - t0)
        gauge_before.append(len(gauges) - 1)
        if error is None:
            if call[0] == "cli":
                if result not in (0, 1):  # 1 is a FAIL verdict, judged below
                    error = "exit code %d" % result
                result = (result, spool)
        if error is None:
            reason = op.check(result, outs)
            if reason:
                wrong += 1
                error = reason
            elif call[0] == "cli" and spool.bytes - before <= KEEP_OUTPUT_BYTES:
                outs[op.key] = spool.text().strip()
        if error:
            failed += 1
            reasons.append("%s: %s" % (op.key, error))
    gauges.append(gauge_s())
    return {
        "wall_s": sum(op_s),
        "op_s": op_s,
        "op_gauge_s": [(gauges[b] + gauges[b + 1]) / 2 for b in gauge_before],
        "gauge_s": gauges,
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "reasons": reasons[:10],
    }


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float)
    ap.add_argument("--out-dir")
    ap.add_argument("--warmup", action="store_true", help="only import, to compile the modules")
    args = ap.parse_args(argv)

    package, modules = import_package()
    import tracer as tracing
    import workloads

    if args.warmup:
        return 0
    ops = workloads.build(args.workload, args.seed)
    setup_s = perf_counter() - args.spawned_at
    tracer = eulerian = None
    if args.trace:
        tracer = tracing.Tracer()
        eulerian = tracing.install(tracer, package, modules)
    spool = Spool(os.path.join(args.out_dir, "spool-%d.txt" % os.getpid()))
    try:
        res = run_pass(ops, modules, spool, tracer)
        res["setup_s"] = setup_s
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        res["emitted_bytes"] = spool.bytes
        res["digest"] = spool.digest.hexdigest()
    finally:
        spool.close()
        os.remove(spool.file.name)
    if tracer is not None:
        res["layers"] = tracing.layer_metrics(tracer, res["wall_s"], spool.bytes, eulerian)
        tracer.dump(os.path.join(args.out_dir, "spans-%s-seed%d.bin" % (args.workload, args.seed)))
    sys.stdout.write(json.dumps(res) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

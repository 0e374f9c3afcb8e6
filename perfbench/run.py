"""qstirling benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload sweep|maps|counting --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source checkout (it imports ./src/qstirling).
The loop is closed: one client, one operation at a time, single-threaded.
Each repetition is a fresh interpreter (child.py), pinned to one CPU,
that sets up the seeded inputs and runs the workload's fixed operation
list once; repetitions continue until S seconds have passed.

With --trace 0 the result holds the end-to-end metrics, medians over the
repetitions. Times are reported at a fixed nominal machine speed: the
speed of a shared 2-vCPU host drifts by up to 1.5x within seconds and by
10-15% from one minute to the next, whatever runs on it, so each child
times a fixed pure-Python gauge loop between operations (untimed), and
each operation's time is multiplied by GAUGE_NOMINAL_S over the mean of
the gauge readings just before and just after it; set-up time is scaled
by the first reading. A change to the package moves these times in full;
a change of machine speed mostly cancels. The unscaled medians are in
the report line. With --trace 1 traced and untraced repetitions alternate
and the result holds the per-layer metrics of the traced ones, plus the
traced/untraced wall-time ratio. The next-to-last line of stdout is a
JSON report with quartiles, sample counts, failure rate and run metadata;
the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`correct` is false when any output was wrong. `failed` also counts
operations that raised or exited with an error, such as the deep-word
probes of the maps workload, which exceed the recursion limit.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402
from workloads import NAMES  # noqa: E402

OUT_DIR = os.path.join(".bench_build", "perfbench")
DEADLINE_S = 170  # every run ends well inside the 180 s a run may take
MIN_REPS = 3  # untraced repetitions, and traced ones with --trace 1
# Seconds the gauge loop (child.gauge_s) takes on a quiet core of a
# 2.0 GHz Xeon under CPython 3.11; reported times are at that speed.
GAUGE_NOMINAL_S = 0.0024


def nearest_rank(sorted_values, q):
    """The q-quantile by nearest rank: an observed value, no interpolation."""
    k = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(k) - 1]


def summary(values, unit):
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3, "samples": len(values)}


def git_revision(root):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """sha256 over the package sources, to tell commits apart without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "qstirling", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


class ChildError(Exception):
    pass


def _probe_loop():
    t0 = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return perf_counter() - t0


def quietest_cpu():
    """The CPU this process may use on which a short fixed loop runs
    fastest right now, or None with fewer than two. Other loads on the
    host slow one CPU or the other for seconds at a time, so each
    repetition is pinned to the CPU that is least slowed when it starts."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    times = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            _probe_loop()
            times[cpu] = _probe_loop()
    finally:
        os.sched_setaffinity(0, cpus)
    return min(times, key=times.get)


def run_child(args, trace, deadline, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--out-dir", OUT_DIR] + list(extra)
    if args is not None:
        cmd += ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    cpu = quietest_cpu()
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    spawned_at = perf_counter()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], stdout=subprocess.PIPE, env=env, preexec_fn=pin)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildError("a repetition did not finish in time")
    if proc.returncode != 0:
        raise ChildError("a repetition exited with code %d" % proc.returncode)
    if args is None:
        return None
    return dict(json.loads(out.decode().strip().splitlines()[-1]), cpu=cpu)


def measure(args):
    """Run repetitions until args.seconds have passed; return (untraced, traced)."""
    start = perf_counter()
    deadline = start + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    run_child(None, 0, deadline, ["--warmup"])  # compile the modules once, untimed
    plain, traced = [], []
    while True:
        enough = len(plain) >= MIN_REPS and (not args.trace or len(traced) >= MIN_REPS)
        if enough and perf_counter() - start >= args.seconds:
            return plain, traced
        trace = args.trace and len(traced) < len(plain)
        (traced if trace else plain).append(run_child(args, int(trace), deadline))


def at_nominal_speed(rep):
    """(op times, set-up time) of a repetition, at the nominal speed."""
    ops = [t * GAUGE_NOMINAL_S / g for t, g in zip(rep["op_s"], rep["op_gauge_s"])]
    return ops, rep["setup_s"] * GAUGE_NOMINAL_S / rep["gauge_s"][0]


def end_to_end(plain, scaled=True):
    times = [at_nominal_speed(r) if scaled else (r["op_s"], r["setup_s"]) for r in plain]
    per_pass_p50 = []
    per_pass_p90 = []
    for op_s, _ in times:
        ops = sorted(op_s)
        per_pass_p50.append(1e3 * nearest_rank(ops, 0.5))
        per_pass_p90.append(1e3 * nearest_rank(ops, 0.9))
    return {
        "wall_s": summary([sum(op_s) for op_s, _ in times], "s"),
        "op_p50_ms": summary(per_pass_p50, "ms"),
        "op_p90_ms": summary(per_pass_p90, "ms"),
        "setup_s": summary([setup_s for _, setup_s in times], "s"),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain], "MB"),
    }


def per_layer(plain, traced):
    """Medians over the traced repetitions; each metric also names the
    end-to-end metric it should move, and on which workload."""
    out = {}
    for name, unit, _, moves in PER_LAYER:
        out[name] = dict(summary([r["layers"][name] for r in traced], unit), moves=moves)
    ratio = statistics.median(sum(at_nominal_speed(r)[0]) for r in traced) / statistics.median(
        sum(at_nominal_speed(r)[0]) for r in plain
    )
    out["trace.overhead_ratio"].update(value=ratio, q1=ratio, q3=ratio)
    return out


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qstirling", "__init__.py")):
        print("error: run from a qstirling checkout (no src/qstirling here)", file=sys.stderr)
        return 2
    try:
        plain, traced = measure(args)
    except ChildError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    wrong = sum(r["wrong"] for r in reps)
    digests = {r["digest"] for r in reps}
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    ops_per_pass = len(plain[0]["op_s"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "ops_per_pass": ops_per_pass,
        "op_latency_samples": ops_per_pass * len(plain),
        "fail_rate": {"value": failed / attempted, "unit": "ratio", "attempted": attempted, "failed": failed},
        "wrong_outputs": wrong,
        "failures": sorted({reason for r in reps for reason in r["reasons"]})[:10],
        "output_sha256": sorted(digests),
        "metrics": metrics,
        "unscaled": {name: m["value"] for name, m in end_to_end(plain, scaled=False).items()},
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "git_revision": git_revision(root),
            "source_sha256": source_digest(root),
            # how fast this machine ran: every gauge reading of every pass
            "gauge_nominal_s": GAUGE_NOMINAL_S,
            "gauge_s": summary([g for r in reps for g in r["gauge_s"]], "s"),
            "repetitions_per_cpu": {str(c): sum(1 for r in reps if r["cpu"] == c) for c in {r["cpu"] for r in reps}},
        },
    }
    result = {
        # every output right, and the same bytes from every repetition
        "correct": wrong == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Spans around the package's public functions, and the per-layer metrics
computed from them.

`install` replaces each traced function with a wrapper everywhere the
package holds a reference to it: in its own module, in every module that
imported the name (`bijections.word_spec`, `genfun.stats`, ...) and in
the package namespace. `PolyTUV`/`SeriesT` operators are wrapped on the
class. For generator functions the span covers each `next()`.

A span records its name, start, end, parent span and operation id. Spans
stay in flat arrays in memory and are written out once the pass ends.
Self time is a span's duration minus the time its child spans cover.
"""

import array
import json
import math
import statistics
from time import perf_counter

from inputs import multiplicities, psi_steps

# (module, attribute, span name, kind): kind "fn", "gen" (span per next())
# or "rec" (a recursive function; calls made from inside it add no span)
TARGETS = (
    ("cli", "run", "cli.run", "fn"),
    ("core", "enumerate_qs", "core.enumerate_qs", "gen"),
    ("core", "stats", "core.stats", "fn"),
    ("core", "qs_polynomial", "core.qs_polynomial", "fn"),
    ("core", "word_from_text", "core.validate", "fn"),
    ("core", "word_spec", "core.validate", "fn"),
    ("core", "is_quasi_stirling", "core.validate", "fn"),
    ("trees", "enumerate_trees", "trees.enumerate_trees", "gen"),
    ("trees", "infer_spec", "trees.validate", "fn"),
    ("trees", "tree_violation", "trees.validate", "fn"),
    ("trees", "validate_tree", "trees.validate", "fn"),
    ("trees", "tree_stats", "trees.tree_stats", "fn"),
    ("trees", "render_tree", "trees.text", "rec"),
    ("trees", "parse_tree", "trees.text", "fn"),
    ("bijections", "phi", "bijections.phi", "fn"),
    ("bijections", "phi_inv", "bijections.phi_inv", "fn"),
    ("bijections", "psi", "bijections.psi", "fn"),
    ("bijections", "psi_inv", "bijections.psi", "fn"),
    ("bijections", "big_phi", "bijections.big_phi", "fn"),
    ("bijections", "big_phi_inv", "bijections.big_phi_inv", "fn"),
    ("bijections", "transport", "bijections.transport", "fn"),
    ("bijections", "zeta", "bijections.zeta", "fn"),
    ("bijections", "zeta_inv", "bijections.zeta", "fn"),
    ("excedance", "chi", "excedance.chi", "fn"),
    ("excedance", "chi_inv", "excedance.chi", "fn"),
    ("excedance", "delta", "excedance.chi", "fn"),
    ("excedance", "delta_inv", "excedance.chi", "fn"),
    ("excedance", "enumerate_J", "excedance.enumerate_J", "gen"),
    ("excedance", "exc", "excedance.exc", "fn"),
    ("genfun", "eulerian", "genfun.eulerian", "fn"),
    ("genfun", "qs_polynomial_from_series", "genfun.series", "fn"),
    ("genfun", "perm_tuple_polynomial_formula", "genfun.series", "fn"),
    ("genfun", "descent_series_coefficients", "genfun.descent_series_coefficients", "fn"),
    ("exactpoly", "SeriesT.__pow__", "exactpoly.SeriesT.pow", "fn"),
    ("exactpoly", "SeriesT.__mul__", "exactpoly.SeriesT.mul", "fn"),
    ("exactpoly", "SeriesT.__rmul__", "exactpoly.SeriesT.mul", "fn"),
    ("exactpoly", "PolyTUV.__mul__", "exactpoly.PolyTUV.mul", "fn"),
    ("exactpoly", "PolyTUV.__rmul__", "exactpoly.PolyTUV.mul", "fn"),
    ("exactpoly", "PolyTUV.__add__", "exactpoly.PolyTUV.add", "fn"),
    ("exactpoly", "PolyTUV.__radd__", "exactpoly.PolyTUV.add", "fn"),
)

# Every per-layer metric: (name, unit, better, what it should move).
# BENCHMARK.json lists the same names, units and directions.
PER_LAYER = (
    ("cli.run.calls", "count", "lower", "op_p50_ms on sweep"),
    ("cli.run.self_s", "s", "lower", "op_p50_ms on sweep (argparse, JSON emit, check glue)"),
    ("cli.emit.bytes", "bytes", "lower", "wall_s, peak_rss_mb on counting"),
    ("core.enumerate_qs.self_s", "s", "lower", "wall_s, peak_rss_mb on counting, sweep"),
    ("core.enumerate_qs.words", "count", "lower", "wall_s, peak_rss_mb on counting, sweep"),
    ("core.stats.calls", "count", "lower", "wall_s on counting"),
    ("core.stats.self_s", "s", "lower", "wall_s on counting"),
    ("core.qs_polynomial.self_s", "s", "lower", "wall_s on counting; op_p90_ms on sweep (thm12, coro15)"),
    ("core.validate.self_s", "s", "lower", "op_p50_ms on maps, sweep"),
    ("trees.enumerate_trees.self_s", "s", "lower", "wall_s, op_p90_ms, peak_rss_mb on sweep"),
    ("trees.enumerate_trees.trees", "count", "lower", "wall_s, op_p90_ms, peak_rss_mb on sweep"),
    ("trees.enumerate_trees.accept_ratio", "ratio", "higher", "wall_s, op_p90_ms on sweep"),
    ("trees.validate.self_s", "s", "lower", "op_p50_ms on sweep"),
    ("trees.validate.calls", "count", "lower", "op_p50_ms on sweep"),
    ("trees.tree_stats.self_s", "s", "lower", "wall_s on sweep"),
    ("trees.text.self_s", "s", "lower", "op_p50_ms on sweep, maps"),
    ("bijections.phi.self_s", "s", "lower", "wall_s on sweep, maps"),
    ("bijections.phi.calls", "count", "lower", "wall_s on sweep, maps"),
    ("bijections.phi.errors", "count", "lower", "failed operations on maps"),
    ("bijections.phi_inv.self_s", "s", "lower", "wall_s on sweep, maps"),
    ("bijections.phi_inv.calls", "count", "lower", "wall_s on sweep, maps"),
    ("bijections.phi_inv.errors", "count", "lower", "failed operations on maps"),
    ("bijections.psi.self_s", "s", "lower", "wall_s, op_p90_ms on sweep (thm23)"),
    ("bijections.big_phi.self_s", "s", "lower", "wall_s, op_p90_ms on maps; sweep (thm11)"),
    ("bijections.big_phi.calls", "count", "lower", "wall_s, op_p90_ms on maps; sweep (thm11)"),
    ("bijections.big_phi.errors", "count", "lower", "failed operations on maps"),
    ("bijections.big_phi.letters", "count", "lower", "wall_s, op_p90_ms on maps"),
    ("bijections.big_phi_inv.self_s", "s", "lower", "wall_s, op_p90_ms on maps; sweep (thm11)"),
    ("bijections.big_phi_inv.calls", "count", "lower", "wall_s, op_p90_ms on maps; sweep (thm11)"),
    ("bijections.transport.self_s", "s", "lower", "wall_s, op_p90_ms on maps"),
    ("bijections.transport.calls", "count", "lower", "wall_s, op_p90_ms on maps"),
    ("bijections.psi_steps", "count", "lower", "op_p90_ms on maps"),
    ("bijections.big_phi.us_per_step", "us", "lower", "op_p90_ms on maps"),
    ("bijections.big_phi.k_exponent", "slope", "lower", "op_p90_ms on maps"),
    ("bijections.zeta.self_s", "s", "lower", "wall_s on maps"),
    ("excedance.chi.self_s", "s", "lower", "wall_s on maps"),
    ("excedance.enumerate_J.self_s", "s", "lower", "wall_s on sweep (thm13)"),
    ("excedance.enumerate_J.injections", "count", "lower", "wall_s on sweep (thm13)"),
    ("excedance.exc.calls", "count", "lower", "wall_s on sweep (thm13)"),
    ("genfun.eulerian.self_s", "s", "lower", "wall_s on counting"),
    ("genfun.eulerian.hit_ratio", "ratio", "higher", "wall_s on counting"),
    ("genfun.series.self_s", "s", "lower", "wall_s on counting"),
    ("genfun.descent_series_coefficients.self_s", "s", "lower", "wall_s on sweep (eq2)"),
    ("exactpoly.SeriesT.pow.self_s", "s", "lower", "wall_s on counting"),
    ("exactpoly.SeriesT.mul.calls", "count", "lower", "wall_s on counting"),
    ("exactpoly.PolyTUV.mul.calls", "count", "lower", "wall_s on counting"),
    ("exactpoly.PolyTUV.mul.term_pairs", "count", "lower", "wall_s on counting"),
    ("exactpoly.PolyTUV.add.calls", "count", "lower", "wall_s on counting"),
    ("trace.overhead_ratio", "ratio", "lower", "nothing: traced over untraced wall_s"),
    ("trace.coverage", "ratio", "higher", "nothing: share of pass time inside any span"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.stack = []
        self.op_id = -1
        self.counts = {}  # counter name -> int
        self.big_phi_samples = []  # (K, seconds, psi steps) per big_phi call

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def add(self, counter, amount=1):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def dump(self, path):
        """Write the spans: a JSON header line, then the five arrays."""
        with open(path, "wb") as f:
            header = {"names": self.names, "spans": len(self.name),
                      "arrays": ["start:d", "end:d", "name:i", "parent:i", "op:i"]}
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent, self.op):
                arr.tofile(f)


class _TracedIter:
    __slots__ = ("it", "tracer", "nid", "counter")

    def __init__(self, it, tracer, nid, counter):
        self.it, self.tracer, self.nid, self.counter = it, tracer, nid, counter

    def __iter__(self):
        return self

    def __next__(self):
        i = self.tracer.open(self.nid)
        try:
            item = next(self.it)
        finally:
            self.tracer.close(i)
        self.tracer.add(self.counter)
        return item


_ITEM_COUNTERS = {
    "core.enumerate_qs": "core.enumerate_qs.words",
    "trees.enumerate_trees": "trees.enumerate_trees.trees",
    "excedance.enumerate_J": "excedance.enumerate_J.injections",
}


def _after_call(tracer, name, args, duration):
    """Exact work counts taken from a completed call's arguments."""
    if name == "bijections.big_phi":
        word = tuple(args[0])
        steps = psi_steps(multiplicities(word) or ())
        tracer.add("bijections.big_phi.letters", len(word))
        tracer.add("bijections.psi_steps", steps)
        tracer.add("bijections.big_phi.steps", steps)
        tracer.big_phi_samples.append((len(word), duration, steps))
    elif name == "bijections.big_phi_inv":
        target = args[1]
        tracer.add("bijections.psi_steps", psi_steps(getattr(target, "mult", target)))
    elif name == "exactpoly.PolyTUV.mul":
        a, b = args
        tracer.add("exactpoly.PolyTUV.mul.term_pairs", len(a.terms) * len(getattr(b, "terms", (0,))))
    elif name == "trees.enumerate_trees":
        mult = args[0].mult
        tracer.add("trees.enumerate_trees.slots_tried", (sum(mult) - len(mult) + 1) ** len(mult))


_COUNTED = ("bijections.big_phi", "bijections.big_phi_inv", "exactpoly.PolyTUV.mul", "trees.enumerate_trees")


def _wrap(tracer, fn, name, kind):
    nid = tracer.name_id(name)
    counted = name in _COUNTED

    if kind == "gen":
        counter = _ITEM_COUNTERS[name]

        def gen_wrapper(*args, **kwargs):
            if counted:
                _after_call(tracer, name, args, 0.0)
            return _TracedIter(fn(*args, **kwargs), tracer, nid, counter)

        return gen_wrapper

    depth = [0]

    def wrapper(*args, **kwargs):
        if depth[0]:
            return fn(*args, **kwargs)
        if kind == "rec":
            depth[0] = 1
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(i)
            tracer.add(name + ".errors")
            raise
        finally:
            depth[0] = 0
        tracer.close(i)
        if counted:
            _after_call(tracer, name, args, tracer.end[i] - tracer.start[i])
        return out

    return wrapper


def install(tracer, package, modules):
    """Wrap every target in TARGETS. `modules` maps short names to the
    imported package modules. Returns the lru_cache'd eulerian, whose
    cache statistics feed genfun.eulerian.hit_ratio."""
    eulerian = modules["genfun"].eulerian
    holders = [package] + list(modules.values())
    for mod_name, attr, name, kind in TARGETS:
        mod = modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _wrap(tracer, cls.__dict__[meth], name, kind))
            continue
        original = getattr(mod, attr)
        wrapped = _wrap(tracer, original, name, kind)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
    return eulerian


def self_times(parent, start, end):
    """Per-span self time: duration minus the durations of its children.
    Spans nest properly (one thread), so children never overlap."""
    cover = [0.0] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            cover[p] += end[i] - start[i]
    return [end[i] - start[i] - cover[i] for i in range(len(parent))]


def _slope(points):
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def layer_metrics(tracer, pass_s, emitted_bytes, eulerian_cache):
    """Every PER_LAYER metric except trace.overhead_ratio, which needs the
    untraced passes and is filled in by the runner."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    self_s = {}
    calls = {}
    root_s = 0.0
    for i, nid in enumerate(tracer.name):
        n = tracer.names[nid]
        self_s[n] = self_s.get(n, 0.0) + selfs[i]
        calls[n] = calls.get(n, 0) + 1
        if tracer.parent[i] < 0:
            root_s += tracer.end[i] - tracer.start[i]
    counts = tracer.counts
    steps = counts.get("bijections.big_phi.steps", 0)
    by_k = {}
    for K, seconds, s in tracer.big_phi_samples:
        if s:
            by_k.setdefault(K, []).append(seconds)
    info = eulerian_cache.cache_info()
    lookups = info.hits + info.misses
    tried = counts.get("trees.enumerate_trees.slots_tried", 0)
    out = {}
    for metric, unit, _, _ in PER_LAYER:
        layer, _, quantity = metric.rpartition(".")
        if quantity == "self_s":
            value = self_s.get(layer, 0.0)
        elif quantity == "calls":
            value = calls.get(layer, 0)
        else:
            value = counts.get(metric, 0)
        out[metric] = value
    out["cli.emit.bytes"] = emitted_bytes
    out["trees.enumerate_trees.accept_ratio"] = counts.get("trees.enumerate_trees.trees", 0) / tried if tried else 0.0
    out["bijections.big_phi.us_per_step"] = 1e6 * self_s.get("bijections.big_phi", 0.0) / steps if steps else 0.0
    out["bijections.big_phi.k_exponent"] = (
        _slope([(K, statistics.median(v)) for K, v in sorted(by_k.items())]) if len(by_k) >= 2 else 0.0
    )
    out["genfun.eulerian.hit_ratio"] = info.hits / lookups if lookups else 0.0
    out["trace.coverage"] = root_s / pass_s if pass_s else 0.0
    out["trace.overhead_ratio"] = 0.0
    return out

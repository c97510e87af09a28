"""In-memory span tracer that wraps lpboot's functions from outside.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` replaces every
public function of the measured modules at every module attribute that binds
it (``lpboot.sampling.copula_sample`` and ``lpboot.harness.copula_sample`` get
the same wrapper), plus a few named private helpers and methods, and
:meth:`Tracer.uninstall` puts the originals back.

Parent stacks are kept per thread.  Each harness replicate runs inside a
``harness.replicate`` span whose parent is the ``harness.replicates`` span on
the submitting thread, so spans opened in pool threads nest under it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

MEASURED = ("lp", "covariance", "sampling", "bootstrap", "inference", "harness")

# lp_norm_rows spans are split by exponent label
P_SUFFIX = {"1": "p1", "2": "p2", "logd": "plogd", "inf": "pinf"}

# span names reported as per-layer metrics (calls, self_ms, total_ms each)
REPORTED_SPANS = (
    "covariance.cv_select_lambda", "covariance.correlation_threshold",
    "covariance.psd_project", "covariance.sample_covariance",
    "lp.lp_norm_rows", "lp.lp_norm_rows.p1", "lp.lp_norm_rows.p2",
    "lp.lp_norm_rows.plogd", "lp.lp_norm_rows.pinf", "lp.lp_norm",
    "sampling.copula_sample", "sampling.normal_cdf", "sampling.marginal_quantile",
    "sampling.mvn_sample", "sampling.factorize_psd", "sampling.copula_covariance",
    "sampling.RngSeed.generator",
    "bootstrap.gpb_draws", "bootstrap.EmpiricalDistribution",
    "bootstrap.empirical_quantile", "bootstrap.ks_distance",
    "inference.run_test", "inference.estimate_covariance", "inference.test_statistic",
    "harness.run_experiment", "harness.truth", "harness.replicates",
    "harness.engine.proxy", "harness.engine.gmb", "harness.engine.naive",
    "harness.engine.corr_cv",
)

# per-layer metrics computed from counters and from the trace as a whole
REPORTED_OTHER = {
    "covariance.psd_project.eigh_calls": "count",
    "covariance.psd_project.cholesky_share": "ratio",
    "covariance.CovMatrix.constructions": "count",
    "lp.lp_norm_rows.rows": "count",
    "lp.lp_norm_rows.bytes_computed": "bytes",
    "sampling.mvn_sample.rows": "count",
    "bootstrap.draws": "count",
    "harness.workers.busy_share": "ratio",
    # traced wall time = top-level span time + time outside any span
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.top_level_s": "s",
    "trace.uncovered_s": "s",
}

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "op")


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in REPORTED_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.total_ms"] = "ms"
    units.update(REPORTED_OTHER)
    return units


class Tracer:
    """Spans as tuples in SPAN_FIELDS order, plus named counters, in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op) -> None:
        """Tag spans opened later on this thread, outside any span, with an op id."""
        self._local.op = op

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    def span(self, name: str, parent=None, op=None) -> "_Span":
        return _Span(self, name, parent, op)

    def _inside(self, name: str) -> bool:
        stack = self._stack()
        return bool(stack) and stack[-1][1] == name

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name):
        """Span around fn; name is a string or a callable of (args, kwargs)."""
        namer = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(namer(args, kwargs)):
                return fn(*args, **kwargs)

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, modules, old, new) -> None:
        """Point every module attribute that binds ``old`` at ``new``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self._replace(mod, attr, new)

    def install(self) -> None:
        import lpboot

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "lpboot" or name.startswith("lpboot."))]
        namers = {"lp.lp_norm_rows": self._lp_rows_name,
                  "sampling.mvn_sample": self._mvn_name}
        for short in MEASURED:
            mod = getattr(lpboot, short)
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                self._rebind(modules, fn, self._wrap(fn, namers.get(name, name)))

        harness = lpboot.harness
        self._rebind(modules, harness._truth_distributions,
                     self._wrap(harness._truth_distributions, "harness.truth"))
        self._rebind(modules, harness._engine_draws,
                     self._wrap(harness._engine_draws,
                                lambda args, kwargs: f"harness.engine.{_arg(args, kwargs, 0, 'name')}"))
        self._rebind(modules, harness._run_indexed, self._wrap_replicates(harness._run_indexed))

        rng_cls = lpboot.sampling.RngSeed
        self._replace(rng_cls, "generator",
                      self._wrap(rng_cls.generator, "sampling.RngSeed.generator"))
        self._wrap_constructors(lpboot.covariance.CovMatrix,
                                lpboot.bootstrap.EmpiricalDistribution)
        self._wrap_linalg()

    def _lp_rows_name(self, args, kwargs) -> str:
        rows, d = np.shape(_arg(args, kwargs, 0, "X"))
        self.count("lp.lp_norm_rows.rows", rows)
        self.count("lp.lp_norm_rows.bytes_computed", rows * d * 8)
        label = _arg(args, kwargs, 1, "p").label
        return f"lp.lp_norm_rows.{P_SUFFIX.get(label, 'p' + label)}"

    def _mvn_name(self, args, kwargs) -> str:
        self.count("sampling.mvn_sample.rows", _arg(args, kwargs, 1, "count"))
        return "sampling.mvn_sample"

    def _wrap_replicates(self, run_indexed):
        @functools.wraps(run_indexed)
        def traced(worker, count, threads):
            with self.span("harness.replicates") as outer:
                def replicate(i):
                    with self.span("harness.replicate", parent=outer.sid, op=i):
                        return worker(i)

                return run_indexed(replicate, count, threads)

        return traced

    def _wrap_constructors(self, cov_cls, dist_cls) -> None:
        cov_init, dist_init = cov_cls.__post_init__, dist_cls.__post_init__

        @functools.wraps(cov_init)
        def counted_cov_init(obj):
            self.count("covariance.CovMatrix.constructions")
            cov_init(obj)

        @functools.wraps(dist_init)
        def traced_dist_init(obj):
            with self.span("bootstrap.EmpiricalDistribution"):
                dist_init(obj)
            if obj.meta.get("engine") != "truth":
                self.count("bootstrap.draws", obj.samples.size)

        self._replace(cov_cls, "__post_init__", counted_cov_init)
        self._replace(dist_cls, "__post_init__", traced_dist_init)

    def _wrap_linalg(self) -> None:
        """Count which path each psd_project call took (Cholesky or eigh)."""
        cholesky, eigh = np.linalg.cholesky, np.linalg.eigh

        @functools.wraps(cholesky)
        def counted_cholesky(*args, **kwargs):
            out = cholesky(*args, **kwargs)
            if self._inside("covariance.psd_project"):
                self.count("psd_project.cholesky_certified")
            return out

        @functools.wraps(eigh)
        def counted_eigh(*args, **kwargs):
            if self._inside("covariance.psd_project"):
                self.count("covariance.psd_project.eigh_calls")
            return eigh(*args, **kwargs)

        self._replace(np.linalg, "cholesky", counted_cholesky)
        self._replace(np.linalg, "eigh", counted_eigh)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: [calls, total s, self s], where self time is the
        duration minus the union of the intervals its children cover."""
        children = defaultdict(list)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, start, end, _, _, _ in self.spans:
            row = agg[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - _union_length(children.get(sid, ()), start, end)
        per_p = [row for name, row in agg.items() if name.startswith("lp.lp_norm_rows.")]
        agg["lp.lp_norm_rows"] = [sum(col) for col in zip((0, 0.0, 0.0), *per_p)]
        return agg

    def per_layer(self, wall_s: float, untraced_wall_s: float, threads: int) -> dict:
        agg = self.aggregate()
        out = {}
        for name in REPORTED_SPANS:
            calls, total, self_s = agg.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_s * 1e3
            out[f"{name}.total_ms"] = total * 1e3
        c = self.counts
        projections = out["covariance.psd_project.calls"]
        out["covariance.psd_project.cholesky_share"] = (
            c["psd_project.cholesky_certified"] / projections if projections else 0.0)
        for key in ("covariance.psd_project.eigh_calls", "covariance.CovMatrix.constructions",
                    "lp.lp_norm_rows.rows", "lp.lp_norm_rows.bytes_computed",
                    "sampling.mvn_sample.rows", "bootstrap.draws"):
            out[key] = int(c[key])
        replicates_s = agg.get("harness.replicates", (0, 0.0, 0.0))[1]
        busy_s = agg.get("harness.replicate", (0, 0.0, 0.0))[1]
        out["harness.workers.busy_share"] = (
            busy_s / (replicates_s * max(threads, 1)) if replicates_s > 0 else 0.0)
        main = threading.main_thread().ident
        top_level = sum(end - start for _, _, start, end, parent, thread, _ in self.spans
                        if parent is None and thread == main)
        out["trace.wall_s"] = wall_s
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        out["trace.top_level_s"] = top_level
        out["trace.uncovered_s"] = wall_s - top_level
        return out


class _Span:
    __slots__ = ("tracer", "name", "parent", "op", "sid", "start")

    def __init__(self, tracer: Tracer, name: str, parent, op):
        self.tracer, self.name, self.parent, self.op = tracer, name, parent, op

    def __enter__(self) -> "_Span":
        t = self.tracer
        stack = t._stack()
        if stack:
            top_sid, _, top_op = stack[-1]
            if self.parent is None:
                self.parent = top_sid
            if self.op is None:
                self.op = top_op
        elif self.op is None:
            self.op = getattr(t._local, "op", None)
        self.sid = next(t._ids)
        stack.append((self.sid, self.name, self.op))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        t = self.tracer
        t._stack().pop()
        t.spans.append((self.sid, self.name, self.start, end, self.parent,
                        threading.get_ident(), self.op))
        return False


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total

"""Span recorder for the traced run.

The recorder swaps the module attributes through which each layer is
called for timing wrappers, so spans are recorded from the benchmark's
own files and the package itself is left untouched.  A span is a tuple
(id, name, start_ns, end_ns, parent_id, thread_id, pass_index); spans are
kept in memory and written out once, at the end of the run.

A wrapped name that no longer exists, or that a workload is expected to
reach but never does, stops the run with an error naming the layer: a
layer that went missing after a refactor must not read as zero.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time

import numpy as np

# (layer, module through which callers look the name up, attribute).  Callers
# resolve these names as module globals at call time, so replacing the
# attribute on that module intercepts every call made through it.
SITES = (
    ("harness", "sparsetrace.harness", "run"),
    ("rng", "sparsetrace.harness", "substream"),
    ("tracers", "sparsetrace.harness", "run_trace_trial"),
    ("tracers", "sparsetrace.tracers", "score_batch"),
    ("tracers", "sparsetrace.tracers", "calibrate_threshold"),
    ("distributions", "sparsetrace.tracers", "sample_prior"),
    ("distributions", "sparsetrace.tracers", "sample_matrix"),
    ("distributions", "sparsetrace.oracles", "prior_quadrature"),
    ("learners", "sparsetrace.tracers", "Dataset"),
    ("learners", "sparsetrace.tracers", "train"),
    ("problems", "sparsetrace.learners", "support_argmax"),
    ("problems", "sparsetrace.tracers", "excess_risk"),
    ("problems", "sparsetrace.oracles", "support_argmax"),
    ("oracles", "sparsetrace.oracles", "verify_sparse_identity"),
    ("oracles", "sparsetrace.oracles", "verify_scaling_identity"),
)

# Spans that make up one trial; a pass's parallel efficiency is their busy
# time over threads x the wall time from the first start to the last end.
TRIAL_SPANS = ("tracers.run_trace_trial", "oracles.verify_sparse_identity",
               "oracles.verify_scaling_identity")

PER_TRIAL_SECONDS = {
    "distributions.sample_matrix_s": "distributions.sample_matrix",
    "distributions.sample_prior_s": "distributions.sample_prior",
    "rng.substream_s": "rng.substream",
    "tracers.score_batch_s": "tracers.score_batch",
    "tracers.calibrate_threshold_s": "tracers.calibrate_threshold",
    "learners.dataset_s": "learners.Dataset",
    "learners.train_s": "learners.train",
    "problems.support_argmax_s": "problems.support_argmax",
    "problems.excess_risk_s": "problems.excess_risk",
    "oracles.sparse_identity_s": "oracles.verify_sparse_identity",
    "oracles.scaling_identity_s": "oracles.verify_scaling_identity",
}
PER_TRIAL_COUNTS = {
    "distributions.entries_sampled": "entries_sampled",
    "tracers.entries_scored": "entries_scored",
    "oracles.weighted_terms": "weighted_terms",
    "oracles.learner_calls": "learner_calls",
}
SELF_LAYERS = ("distributions", "problems", "learners", "tracers", "oracles", "harness")


class TracingError(RuntimeError):
    """A wrapped layer entry point is missing or was never reached."""


def site_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Recorder:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = dict.fromkeys(PER_TRIAL_COUNTS.values(), 0)
        self.counts.update(rows_sampled=0, null_rows=0)
        self.hits: set[str] = set()
        self.row_errors: list[str] = []
        self.pass_threads: list[int] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key: str, value: int) -> None:
        with self._lock:
            self.counts[key] += value

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        # Worker threads start with an empty stack; their spans belong to the
        # span the calling thread has open (the run that mapped the trials).
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(),
                               len(self.pass_threads) - 1))

    @contextlib.contextmanager
    def traced_pass(self, threads: int):
        """Trace one pass of a workload: wrappers installed, spans tagged with it."""
        self.pass_threads.append(threads)
        with self.installed(), self.span("bench.pass"):
            yield

    def _wrap(self, layer: str, site: str, attr: str, fn):
        name = f"{layer}.{attr}"
        after = getattr(self, f"_after_{attr}", None)
        if attr in ("verify_sparse_identity", "verify_scaling_identity"):
            return self._wrap_oracle(name, site, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.hits.add(site)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _wrap_oracle(self, name: str, site: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.hits.add(site)
            bound = signature.bind(*args, **kwargs)
            learner = bound.arguments["learner"]
            calls = 0

            def counted(z):
                nonlocal calls
                calls += 1
                return learner(z)

            bound.arguments["learner"] = counted
            with self.span(name):
                result = fn(*bound.args, **bound.kwargs)
            # Each dataset is paired with every node tuple of the product rule.
            terms = calls * self._local.nodes ** bound.arguments["d"]
            self._add("learner_calls", calls)
            self._add("weighted_terms", terms)
            return result

        return traced

    def _after_sample_matrix(self, args, kwargs, out):
        pop = args[0]
        self._add("entries_sampled", out.size)
        self._add("rows_sampled", out.shape[0])
        nnz = np.count_nonzero(out, axis=1)
        if out.shape[0] and not np.all(nnz == pop.k):
            self.row_errors.append(
                f"sample_matrix returned rows with {int(nnz.min())}..{int(nnz.max())} "
                f"nonzeros, expected k={pop.k}")

    def _after_score_batch(self, args, kwargs, result):
        z = args[2]
        self._add("entries_scored", z.shape[0] * z.shape[1])

    def _after_calibrate_threshold(self, args, kwargs, result):
        self._add("null_rows", np.size(args[1]))

    def _after_prior_quadrature(self, args, kwargs, rule):
        self._local.nodes = rule.nodes.size

    @contextlib.contextmanager
    def installed(self):
        """Swap every site for its timing wrapper; restore on exit."""
        saved = []
        try:
            for layer, module_name, attr in SITES:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    raise TracingError(
                        f"layer {layer!r}: {module_name}.{attr} no longer exists; "
                        f"update SITES in perfbench/tracing.py")
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, site_name(module_name, attr), attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def require(self, sites, balanced=()) -> None:
        """Fail when a site the workload must reach recorded no call, or when
        two counts that every pass keeps equal differ (some calls went round
        the wrapped sites)."""
        layer_of = {site_name(m, a): layer for layer, m, a in SITES}
        for site in sites:
            if site not in self.hits:
                raise TracingError(
                    f"layer {layer_of[site]!r}: {site} was never called in the traced "
                    f"passes; the call path changed, update perfbench/tracing.py")
        if balanced and len({self.counts[key] for key in balanced}) > 1:
            counts = ", ".join(f"{key}={self.counts[key]}" for key in balanced)
            raise TracingError(f"traced counts differ ({counts}); some calls bypass the "
                               f"wrapped sites, update perfbench/tracing.py")

    # -- analysis ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_ns", "end_ns", "parent", "thread", "pass"))
            out.writerows(self.spans)

    def metrics(self, trials: int, nproc: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; times and counts are per traced trial."""
        by_name: dict[str, list[tuple]] = {}
        children: dict[int, list[tuple[int, int]]] = {}
        for span in self.spans:
            by_name.setdefault(span[1], []).append(span)
            children.setdefault(span[4], []).append((span[2], span[3]))

        out: dict[str, tuple[float, str]] = {}
        for metric, name in PER_TRIAL_SECONDS.items():
            busy = sum(s[3] - s[2] for s in by_name.get(name, ()))
            out[metric] = (busy / 1e9 / trials, "s/trial")
        for metric, key in PER_TRIAL_COUNTS.items():
            out[metric] = (self.counts[key] / trials, "count/trial")

        trial_ms = [(s[3] - s[2]) / 1e6 for s in by_name.get("tracers.run_trace_trial", ())]
        out["tracers.run_trace_trial_p50_ms"] = (
            statistics.median(trial_ms) if trial_ms else 0.0, "ms")
        rows = self.counts["rows_sampled"]
        out["tracers.null_share"] = (self.counts["null_rows"] / rows if rows else 0.0, "ratio")

        self_ns = dict.fromkeys(SELF_LAYERS, 0)
        for span in self.spans:
            layer = span[1].split(".", 1)[0]
            if layer in self_ns:
                self_ns[layer] += span[3] - span[2] - _covered(span[2], span[3],
                                                               children.get(span[0], ()))
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = (self_ns[layer] / 1e9 / trials, "s/trial")

        out["harness.parallel_efficiency"] = (self._parallel_efficiency(nproc), "ratio")
        return out

    def _parallel_efficiency(self, nproc: int) -> float:
        groups: dict[tuple[int, int], list[tuple]] = {}
        for span in self.spans:
            if span[1] in TRIAL_SPANS and self.pass_threads[span[6]] == nproc:
                groups.setdefault((span[6], span[4]), []).append(span)
        busy = capacity = 0
        for spans in groups.values():
            busy += sum(s[3] - s[2] for s in spans)
            capacity += nproc * (max(s[3] for s in spans) - min(s[2] for s in spans))
        return busy / capacity if capacity else 0.0


def _covered(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of the given intervals."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered

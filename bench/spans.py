"""Per-layer spans recorded from outside the package.

While a ``traced_layers`` block is active, the public function each
layer exposes is replaced, in every module namespace that ``cli.run``
reaches it through, by a wrapper that records a span: name, start, end,
parent span and job id.  Spans stay in memory and are written out as
JSONL when the run ends.  A layer's self time is its span's duration
minus the time its child spans cover; the ``cli.main`` span around each
job has the layers as children, so its self time is the job time no
layer accounts for (``cli.other_s``).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from psdsparsify import linalg
from psdsparsify.bss import BssParams
from psdsparsify.mmwum_block import BlockParams
from psdsparsify.mmwum_wf import WfParams
from psdsparsify.sampling import pe_iteration_count

JOB_SPAN = "cli.main"


class Tracer:
    """In-memory spans plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.counts = Counter()
        self._stack = []
        self.job = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.job]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def write_jsonl(self, path: str, origin: float) -> None:
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                values = (name, start - origin, end - origin, parent, job)
                fh.write(json.dumps(dict(zip(keys, values))) + "\n")

    def self_times(self) -> dict:
        """{job id: {span name: self seconds}} over every recorded span."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(Counter)
        for index, (name, start, end, _, job) in enumerate(self.spans):
            out[job][name] += end - start - child_time[index]
        return out


def _arg(args, kwargs, position, name):
    """A wrapped call's argument, whether passed by position or by keyword."""
    return args[position] if len(args) > position else kwargs.get(name)


def _input_bytes(tracer, args, kwargs, result):
    tracer.counts["io_formats.input_bytes"] += len(_arg(args, kwargs, 0, "text"))


def _member_bytes(tracer, args, kwargs, result):
    tracer.counts["applications.member_bytes"] += len(result) * result.dim**2 * 8


def _iterations(key, params_cls):
    def hook(tracer, args, kwargs, result):
        reduced, eps = _arg(args, kwargs, 0, "reduced"), _arg(args, kwargs, 1, "eps")
        tracer.counts[key] += params_cls.from_epsilon(eps, reduced.rank).T

    return hook


def _pe_iterations(tracer, args, kwargs, result):
    reduced, eps = _arg(args, kwargs, 0, "reduced"), _arg(args, kwargs, 1, "eps")
    t_total = _arg(args, kwargs, 2, "t_total")
    if t_total is None:
        t_total = pe_iteration_count(reduced.rank, eps)
    tracer.counts["sampling.pe_iters"] += t_total


# (module, attribute, span name, hook run on the result after the span)
TARGETS = (
    ("psdsparsify.io_formats", "parse_costs", "io_formats.parse", _input_bytes),
    ("psdsparsify.applications", "edge_collection", "applications.lift", _member_bytes),
    ("psdsparsify.applications", "cost_lifted_collection", "applications.lift", _member_bytes),
    ("psdsparsify.cli", "reduce_to_identity", "linalg.whiten", None),
    ("psdsparsify.solve", "reduce_to_identity", "linalg.whiten", None),
    ("psdsparsify.applications", "reduce_to_identity", "linalg.whiten", None),
    ("psdsparsify.applications", "certificate_for", "linalg.certify", None),
    ("psdsparsify.solve", "bss_sparsify", "bss.solve", _iterations("bss.iters", BssParams)),
    ("psdsparsify.solve", "wf_sparsify", "mmwum_wf.solve", _iterations("mmwum_wf.iters", WfParams)),
    (
        "psdsparsify.solve", "block_sparsify", "mmwum_block.solve",
        _iterations("mmwum_block.iters", BlockParams),
    ),
    ("psdsparsify.cli", "pe_sparsify", "sampling.pe_solve", _pe_iterations),
    ("psdsparsify.solve", "pe_sparsify", "sampling.pe_solve", _pe_iterations),
    ("psdsparsify.cli", "emit", "cli.emit", None),
)


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        try:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


@contextmanager
def traced_layers(tracer: Tracer):
    """Install the span wrappers; yields the targets that no longer exist."""
    restore = []
    missing = []
    try:
        cli = importlib.import_module("psdsparsify.cli")
        for kind, parse in list(cli._PARSERS.items()):
            cli._PARSERS[kind] = _wrap(tracer, "io_formats.parse", parse, _input_bytes)
            restore.append((cli._PARSERS, kind, parse))
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, _wrap(tracer, name, fn, hook))
            restore.append((module, attr, fn))
        yield missing
    finally:
        for owner, key, fn in reversed(restore):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)


def _median_per_list(per_job: dict, lists: list, name: str) -> float:
    """Median over traced job lists of one span name's summed self time."""
    totals = [sum(per_job[job][name] for job in jobs) for jobs in lists]
    return float(statistics.median(totals)) if totals else 0.0


def layer_metrics(tracer: Tracer, lists: list, micro: dict, overhead_frac: float) -> dict:
    """Per-layer values for one job list; ``lists`` holds each traced list's job ids."""
    per_job = tracer.self_times()
    n_lists = max(1, len(lists))
    counts = {k: v / n_lists for k, v in tracer.counts.items()}
    span_counts = Counter(name for name, *_ in tracer.spans)

    def seconds(name):
        return _median_per_list(per_job, lists, name)

    def per_iter_us(solve_s, iters):
        return solve_s / iters * 1e6 if iters else 0.0

    out = {
        "io_formats.parse_s": seconds("io_formats.parse"),
        "io_formats.input_bytes": counts.get("io_formats.input_bytes", 0.0),
        "applications.lift_s": seconds("applications.lift"),
        "applications.member_bytes": counts.get("applications.member_bytes", 0.0),
        "linalg.whiten_s": seconds("linalg.whiten"),
        "linalg.whiten_calls": span_counts["linalg.whiten"] / n_lists,
        "linalg.certify_s": seconds("linalg.certify"),
        "cli.emit_s": seconds("cli.emit"),
        "cli.other_s": seconds(JOB_SPAN),
        "trace.overhead_frac": overhead_frac,
    }
    for prefix, span in (
        ("bss.", "bss.solve"),
        ("mmwum_wf.", "mmwum_wf.solve"),
        ("mmwum_block.", "mmwum_block.solve"),
        ("sampling.pe_", "sampling.pe_solve"),
    ):
        solve_s = seconds(span)
        iters = counts.get(f"{prefix}iters", 0.0)
        out[f"{prefix}solve_s"] = solve_s
        out[f"{prefix}iters"] = iters
        out[f"{prefix}iter_us"] = per_iter_us(solve_s, iters)
    out["sampling.pe_retries"] = counts.get("sampling.pe_solve.raised.TNotLargeEnough", 0.0)
    out.update(micro)
    return out


def _median_call_us(fn, budget_s: float = 0.2, min_calls: int = 7) -> float:
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def kernel_timings(reduced: linalg.ReducedInstance, seed: int) -> dict:
    """Median single-call times of the per-iteration kernels at the workload's (m, r)."""
    rng = np.random.default_rng(seed)
    s = reduced.weighted_sum(rng.uniform(0.0, 2.0, len(reduced)))
    reduced.score_all(s)  # builds the cached flattened stack outside the timing
    return {
        "linalg.score_all_us": _median_call_us(lambda: reduced.score_all(s)),
        "linalg.eigh_us": _median_call_us(lambda: linalg.eigh(s)),
        "linalg.sym_exp_us": _median_call_us(lambda: linalg.sym_exp(s)),
    }

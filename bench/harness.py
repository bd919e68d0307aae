"""Set-up, timed job loop, output checks and metrics of one workload run.

A run is a closed loop with one client: the job list of the workload is
run in this process, one ``cli.main`` call at a time in the main thread
(``cli.main`` arms ``SIGALRM``), again and again until the measuring time
is used up.  Times are taken around each whole list; the median list
time is ``wall_s``.  Outputs are read and hashed after each list and
checked after the loop, so no check is inside a timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

from psdsparsify import applications as apps
from psdsparsify import cli
from psdsparsify.linalg import reduce_to_identity

import spans
from verify import check_output, load_reference
from workloads import Workload, job_argv, tiny, write_inputs

SETUP_REPEATS = 5


@dataclass
class ListRun:
    """One pass over the job list."""

    traced: bool
    seconds: float
    codes: list
    digests: list
    job_ids: list = field(default_factory=list)


def run_list(w: Workload, inputs, seed: int, outputs: list, tracer=None, tag: str = ""):
    """Run every job of the list once; returns (seconds, exit codes, job ids)."""
    for path in outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    argvs = [job_argv(w, inputs, j, seed, outputs[j]) for j in range(w.jobs)]
    codes, job_ids = [], []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for j, argv in enumerate(argvs):
            job_id = f"{tag}j{j}"
            job_ids.append(job_id)
            if tracer is None:
                codes.append(_call_main(argv))
                continue
            tracer.job = job_id
            with tracer.span(spans.JOB_SPAN):
                codes.append(_call_main(argv))
    return time.perf_counter() - start, codes, job_ids


def _call_main(argv) -> object:
    """Exit status of one job; an escaping exception is a failed job, not a crash."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return f"SystemExit {exc.code}"
    except Exception as exc:  # the benchmark keeps running and reports the job failed
        return f"{type(exc).__name__}: {exc}"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


def set_up(w: Workload, seed: int, workdir: str):
    """Write the inputs and warm up on a tiny copy; returns (inputs, seconds)."""
    start = time.perf_counter()
    inputs = write_inputs(w, seed, workdir)
    warm = os.path.join(workdir, "warm")
    os.makedirs(warm, exist_ok=True)
    small = tiny(w)
    warm_inputs = write_inputs(small, seed, warm)
    outputs = [os.path.join(warm, f"out{j}.txt") for j in range(small.jobs)]
    run_list(small, warm_inputs, seed, outputs)
    return inputs, time.perf_counter() - start


def account(w: Workload, ref, lists: list, first_texts: list) -> dict:
    """Check the first list's outputs and hold every later list to the same digest.

    Returns attempted/failed counts, the failure reasons, and the
    quality figures of the checked outputs.
    """
    first = lists[0]
    checks = [
        check_output(ref, w.algos[j], w.eps, first.codes[j], first_texts[j])
        for j in range(w.jobs)
    ]
    attempted, failures = 0, []
    for i, run in enumerate(lists):
        for j in range(w.jobs):
            attempted += 1
            if not checks[j].ok:
                failures.append(f"list {i} job {j} ({w.algos[j]}): {checks[j].reason}")
            elif run.codes[j] != first.codes[j] or run.digests[j] != first.digests[j]:
                failures.append(f"list {i} job {j} ({w.algos[j]}): output differs from list 0")
    supports = [c.support_frac for c in checks if c.support_frac is not None]
    ratios = [c.lambda_ratio for c in checks if c.lambda_ratio is not None]
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "support_frac": statistics.fmean(supports) if supports else 0.0,
        "lambda_ratio_max": max(ratios) if ratios else 0.0,
    }


def _solver_instance(w: Workload, ref):
    """The whitened collection the solvers of this workload work on."""
    if ref.costs:
        return reduce_to_identity(apps.cost_lifted_collection(ref.graph, ref.costs))
    return reduce_to_identity(ref.collection)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: str,
                 import_s: float, trace_path: str | None = None) -> dict:
    """Set up, measure for ``seconds``, check every output, and return the figures."""
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, took = set_up(w, seed, workdir)
        setups.append(took)

    tracer = spans.Tracer() if trace else None
    outputs = [os.path.join(workdir, f"out{j}.txt") for j in range(w.jobs)]
    lists, first_texts, missing = [], None, []
    origin = time.perf_counter()
    while True:
        # traced and untraced lists alternate so load drifts hit both alike
        traced = tracer is not None and len(lists) % 2 == 1
        with contextlib.ExitStack() as stack:
            if traced:
                missing = stack.enter_context(spans.traced_layers(tracer))
            took, codes, job_ids = run_list(
                w, inputs, seed, outputs, tracer if traced else None, tag=f"l{len(lists)}"
            )
        texts = [_read(p) for p in outputs]
        digests = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
        lists.append(ListRun(traced, took, codes, digests, job_ids))
        if first_texts is None:
            first_texts = texts
        if time.perf_counter() - origin >= seconds and (tracer is None or len(lists) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref = load_reference(w.kind, inputs.input, inputs.costs)
    tally = account(w, ref, lists, first_texts)
    untraced = [r.seconds for r in lists if not r.traced]
    traced_s = [r.seconds for r in lists if r.traced]
    figures = {
        "wall_s": statistics.median(untraced),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "pass_frac": 1.0 - tally["failed"] / tally["attempted"],
        "support_frac": tally["support_frac"],
        "lambda_ratio_max": tally["lambda_ratio_max"],
    }
    result = {
        "figures": figures,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "failures": tally["failures"],
        "samples": {
            "wall_s": untraced,
            "traced_s": traced_s,
            "setup_s": setups,
            "import_s": import_s,
        },
    }
    if tracer is not None:
        overhead = statistics.median(traced_s) / statistics.median(untraced) - 1.0
        kernels = spans.kernel_timings(_solver_instance(w, ref), seed)
        job_lists = [r.job_ids for r in lists if r.traced]
        figures.update(spans.layer_metrics(tracer, job_lists, kernels, overhead))
        result["trace_missing"] = missing
        if trace_path is not None:
            tracer.write_jsonl(trace_path, origin)
    return result

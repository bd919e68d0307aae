"""Benchmark of the ``sparsify`` command: timed job lists on four workloads.

Run one workload (this is what the benchmark contract calls):

    python3 bench/run.py --workload dense-r30 --seed 1 --seconds 20 --trace 0

or every workload, each in its own fresh process, one after another:

    python3 bench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of a traced run and writes its
spans to ``.bench_work/trace-<workload>-seed<seed>.jsonl``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--results FILE`` also
appends the full record of the run (environment, samples, failure
reasons) to FILE for ``bench/compare.py``.

The package is imported from ``src/`` of the checkout that holds this
file; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".bench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def build_parser(spec: dict) -> argparse.ArgumentParser:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=None, help="append the full run record to this JSONL file")
    parser.add_argument("--tiny", action="store_true", help="run at toy sizes (self-test)")
    return parser


def environment(loadavg) -> dict:
    """Machine and library facts written into every result."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_at_start": list(loadavg),
    }


def _import_package() -> float:
    """Import psdsparsify from this checkout's src/; returns the seconds it took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import psdsparsify.cli  # noqa: F401  (the import is what is timed)

    took = time.perf_counter() - start
    location = Path(psdsparsify.cli.__file__).resolve()
    if not location.is_relative_to(src.resolve()):
        raise ImportError(f"psdsparsify was imported from {location}, not from {src}")
    return took


def run_one(args, spec: dict, loadavg) -> int:
    for var in THREAD_VARS:  # one BLAS thread, fixed before numpy loads
        os.environ[var] = "1"
    try:
        import_s = _import_package()
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS, tiny

    env = environment(loadavg)
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir()
    trace_path = WORK_DIR / f"trace-{w.name}-seed{args.seed}.jsonl" if args.trace else None
    try:
        result = harness.run_workload(
            w, args.seed, args.seconds, bool(args.trace), str(workdir), import_s,
            str(trace_path) if trace_path else None,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": result["figures"][m["name"]], "unit": m["unit"]} for m in wanted
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "workload_summary": w.summary(),
        "env": env,
        "metrics": metrics,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "samples": result["samples"],
        "trace_missing": result.get("trace_missing", []),
    }
    if args.results:
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    for reason in result["failures"][:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    for missing in record["trace_missing"]:
        print(f"warning: trace target {missing} not found; its time counts as cli.other_s",
              file=sys.stderr)
    print(f"# {args.workload}: {w.summary()}")
    print("# env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh process, one at a time; one combined result line."""
    status, correct, attempted, failed, metrics = 0, True, 0, 0, {}
    for w in spec["workloads"]:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", w["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.results:
            cmd += ["--results", args.results]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w['name']} exited with status {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 2
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[f"{w['name']}.{name}"] = m
    if status == 0:
        print(json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ))
    return status


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    args = build_parser(spec).parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec, loadavg)


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at toy sizes.

    python3 bench/selftest.py

Checks that ``BENCHMARK.json`` keeps the contract's shape, that every
workload emits every end-to-end and per-layer metric with its unit and
passes its own checks, that a traced run writes well-formed spans, that
an output with one negative weight is counted as a failed job, and that
the benchmark refuses to report from a directory without the source tree.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"

END_TO_END = {"wall_s", "setup_s", "peak_rss_mb", "pass_frac", "support_frac", "lambda_ratio_max"}
PER_LAYER = {
    "io_formats.parse_s", "io_formats.input_bytes",
    "applications.lift_s", "applications.member_bytes",
    "linalg.whiten_s", "linalg.whiten_calls", "linalg.certify_s",
    "linalg.score_all_us", "linalg.eigh_us", "linalg.sym_exp_us",
    "bss.solve_s", "bss.iters", "bss.iter_us",
    "mmwum_wf.solve_s", "mmwum_wf.iters", "mmwum_wf.iter_us",
    "mmwum_block.solve_s", "mmwum_block.iters", "mmwum_block.iter_us",
    "sampling.pe_solve_s", "sampling.pe_iters", "sampling.pe_iter_us", "sampling.pe_retries",
    "cli.emit_s", "cli.other_s", "trace.overhead_frac",
}
# the layer each workload exists to load must show up in its traced run
LOADED = {
    "dense-r30": ("io_formats.parse_s", "bss.iters", "mmwum_wf.iters"),
    "dense-r8": ("mmwum_block.iters", "sampling.pe_iters"),
    "graph-pe": ("sampling.pe_iters", "sampling.pe_retries", "applications.lift_s"),
    "graph-costs": ("applications.lift_s", "linalg.whiten_calls", "linalg.certify_s", "bss.iters"),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    check(2 <= len(names) <= 8, "2 to 8 workloads")
    check(set(LOADED) == set(names), f"workloads {names}")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    check(END_TO_END <= set(e2e), f"end-to-end metrics missing: {END_TO_END - set(e2e)}")
    check(e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower", "setup_s")
    check(max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"], "setup_s has the largest bound")
    check(all(0 < m["bound"] <= 0.25 for m in e2e.values()), "bounds in (0, 0.25]")
    layers = {m["name"] for m in spec["per_layer"]}
    check(PER_LAYER <= layers, f"per-layer metrics missing: {PER_LAYER - layers}")
    everything = names + list(e2e) + sorted(layers)
    check(len(everything) == len(set(everything)), "every name used once")

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    for w in spec["workloads"]:
        check(w["why"] == WORKLOADS[w["name"]].summary(), f"why of {w['name']} is stale")
        check(len(w["why"]) <= 200, f"why of {w['name']} is too long")


def run_bench(*args: str, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True,
        timeout=180, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def check_workload(spec: dict, name: str, trace: int) -> None:
    code, out, err = run_bench("--workload", name, "--seed", "5", "--seconds", "0.5",
                               "--trace", str(trace), "--tiny")
    check(code == 0, f"{name} trace {trace} exited {code}: {err}")
    result = json.loads(out.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] and result["failed"] == 0, f"{name} failed its checks: {err}")
    check(result["attempted"] >= 1, "attempted at least 1")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted}, f"{name} metric names")
    for m in wanted:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{name} {m['name']} unit")
        check(isinstance(got["value"], (int, float)), f"{name} {m['name']} value")
    if trace:
        for metric in LOADED[name]:
            check(result["metrics"][metric]["value"] > 0, f"{name} {metric} is zero")
        spans = (ROOT / ".bench_work" / f"trace-{name}-seed5.jsonl").read_text().splitlines()
        first = json.loads(spans[0])
        check(set(first) == {"name", "start", "end", "parent", "job"}, "span keys")
        check(first["name"] == "cli.main" and first["parent"] is None, "job span is the root")
    else:
        check(result["metrics"]["pass_frac"]["value"] == 1.0, f"{name} pass_frac")


def check_negative_weight_fails() -> None:
    """One job's output gets a negative weight; the tally must count that job failed."""
    import hashlib

    import harness
    from verify import load_reference
    from workloads import WORKLOADS, tiny

    w = tiny(WORKLOADS["dense-r8"])
    workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs, _ = harness.set_up(w, 7, str(workdir))
        outputs = [str(workdir / f"out{j}.txt") for j in range(w.jobs)]
        took, codes, ids = harness.run_list(w, inputs, 7, outputs)
        texts = [Path(p).read_text() for p in outputs]
        lines = texts[0].splitlines()
        row = lines.index("weights") + 1
        idx, value = lines[row].split()
        lines[row] = f"{idx} -{value}"
        texts[0] = "\n".join(lines) + "\n"
        digests = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
        run = harness.ListRun(False, took, codes, digests, ids)
        ref = load_reference(w.kind, inputs.input, inputs.costs)
        clean = harness.account(w, ref, [run], [Path(p).read_text() for p in outputs])
        check(clean["failed"] == 0, f"uncorrupted outputs failed: {clean['failures']}")
        tally = harness.account(w, ref, [run, run], texts)
        check(tally["failed"] == 2 and tally["attempted"] == 2 * w.jobs,
              f"negative weight not counted: {tally}")
        check("negative weight" in tally["failures"][0], tally["failures"][0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_refuses_without_source() -> None:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "graph-pe", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
        check(proc.returncode != 0, "run without src/ exited 0")
        check("{" not in proc.stdout, "run without src/ printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
    check_negative_weight_fails()
    check_refuses_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

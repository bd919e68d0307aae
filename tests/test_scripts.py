"""The scripts under ``scripts/`` run end to end at toy sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# script: its arguments and the start of one line its output must hold
RUNS = {
    "compare_algorithms.py": (["--n", "4", "--m", "12"], "instance: n=4 m=12 rank=4 eps=0.45"),
    "sparsify_random_graph.py": (["--n", "6"], "worst cut distortion over 31 cuts: "),
    "io_peak.py": (["--n", "4", "--m", "10"], "whiten  best of 5: "),
    "graph_scale.py": (["--n", "30", "--p", "0.3"], "exit 0, passed true"),
    "first_window_step.py": (["--tiny"], "dense-r30 seed=1 bss: T "),
}


@pytest.mark.parametrize("script", list(RUNS))
def test_script_runs(tmp_path, script):
    args, key_line = RUNS[script]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith(key_line) for line in proc.stdout.splitlines()), proc.stdout

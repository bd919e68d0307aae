"""Exit status and report of ``scripts/compare_outputs.py``, with its CLI runs stubbed out."""

import importlib.util
import sys
from pathlib import Path

import pytest

import psdsparsify

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_outputs.py"
WORKLOADS = ROOT / "bench" / "workloads.py"
OUTPUT = "weights\n0 1.0\ncertificate\nlambda_min 1.0\nlambda_max 1.5\nsupport_size 1\n"


def _load(name, path):
    """Import ``path`` read-only: no bytecode cache is written next to it.

    The module is in ``sys.modules`` only while it runs, where its
    dataclasses look for it."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[name]
    return module


@pytest.fixture
def compare_outputs():
    return _load("compare_outputs", SCRIPT)


def test_the_gate_runs_every_solver_and_the_benchmark_runs_no_other(compare_outputs):
    assert compare_outputs.ALGORITHMS == psdsparsify.ALGORITHMS
    workloads = _load("bench_workloads", WORKLOADS)
    for w in workloads.WORKLOADS.values():
        assert set(w.algos) <= set(psdsparsify.ALGORITHMS), w.name


def _run(compare_outputs, monkeypatch, tmp_path, change_texts, change_code=0):
    """main() on one job per change text, each against OUTPUT; returns its status."""
    jobs = [(f"job{k}", [str(k)]) for k in range(len(change_texts))]

    def run_side(src, argv, output):
        change = src.endswith("change")
        text = change_texts[int(argv[0])] if change else OUTPUT
        if text is not None:
            output.write_text(text, encoding="utf-8")
        return change_code if change else 0

    monkeypatch.setattr(compare_outputs, "jobs", lambda work, algos: jobs)
    monkeypatch.setattr(compare_outputs, "run_side", run_side)
    monkeypatch.setattr(sys, "path", list(sys.path))
    argv = ["compare_outputs.py", str(tmp_path / "parent"), str(tmp_path / "change")]
    monkeypatch.setattr(sys, "argv", argv + ["--work", str(tmp_path / "work")])
    return compare_outputs.main()


@pytest.mark.parametrize(
    "change_text,change_code,status",
    [
        (OUTPUT, 0, 0),
        (OUTPUT.replace("1.0\nc", "1.25\nc"), 0, 1),
        (OUTPUT, 2, 1),
    ],
    ids=["identical", "bytes-differ", "exit-codes-differ"],
)
def test_exit_status(compare_outputs, monkeypatch, tmp_path, change_text, change_code, status):
    assert _run(compare_outputs, monkeypatch, tmp_path, [change_text], change_code) == status


def test_differences_are_stated_per_output_and_at_the_end(
    compare_outputs, monkeypatch, tmp_path, capsys
):
    texts = [
        OUTPUT,
        OUTPUT.replace("0 1.0\n", "0 1.25\n"),
        OUTPUT.replace("min 1.0", "min 0.5").replace("max 1.5", "max 2.0"),
    ]
    assert _run(compare_outputs, monkeypatch, tmp_path, texts) == 1
    same, weights, certificate, counts, largest = capsys.readouterr().out.splitlines()
    assert "identical" in same and "rel diff" not in same
    assert "weight rel diff 2.00e-01  lambda_min rel diff 0.00e+00" in weights
    assert "lambda_max rel diff 0.00e+00" in weights
    assert "weight rel diff 0.00e+00  lambda_min rel diff 5.00e-01" in certificate
    assert "lambda_max rel diff 2.50e-01" in certificate
    assert counts == "1 of 3 outputs byte-identical, 1 rounding, 1 moved, 0 exit codes differ"
    assert largest == (
        "largest rel diff over the differing outputs: "
        "weights 2.00e-01, lambda_min 5.00e-01, lambda_max 2.50e-01"
    )


def test_no_closing_difference_line_when_all_are_identical(
    compare_outputs, monkeypatch, tmp_path, capsys
):
    assert _run(compare_outputs, monkeypatch, tmp_path, [OUTPUT, OUTPUT]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "2 of 2 outputs byte-identical, 0 rounding, 0 moved, 0 exit codes differ"


def test_a_zero_lambda_min_is_reported(compare_outputs, monkeypatch, tmp_path, capsys):
    zero = OUTPUT.replace("lambda_min 1.0", "lambda_min 0.0")
    assert _run(compare_outputs, monkeypatch, tmp_path, [zero], change_code=1) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert "lambda_min rel diff 1.00e+00" in line
    assert "lambda_max/lambda_min 1.5000000000/inf  exit 0/1" in line


@pytest.mark.parametrize(
    "change_text,change_code,label",
    [
        (OUTPUT.replace("0 1.0\n", "0 1.0000000000004\n"), 0, "rounding"),
        (OUTPUT.replace("max 1.5", "max 1.75"), 0, "rounding"),
        (OUTPUT.replace("0 1.0\n", "0 1.000000000002\n"), 0, "moved"),
        (OUTPUT.replace("0 1.0\n", "1 1.0\n"), 0, "moved"),
        (OUTPUT.replace("0 1.0\n", "0 1.0\n3 1e-20\n"), 0, "moved"),
        (OUTPUT.replace("max 1.5", "max 1.75"), 1, "moved"),
        (None, 1, "moved"),
    ],
    ids=[
        "weights-within-1e-12",
        "lambdas-only",
        "weights-beyond-1e-12",
        "support-moved",
        "support-grew",
        "exit-codes-differ",
        "no-output",
    ],
)
def test_a_differing_output_is_labelled(
    compare_outputs, monkeypatch, tmp_path, capsys, change_text, change_code, label
):
    assert _run(compare_outputs, monkeypatch, tmp_path, [change_text], change_code) == 1
    line, counts = capsys.readouterr().out.splitlines()[:2]
    assert f"DIFFERS  {label}" in line
    rounding, moved = (1, 0) if label == "rounding" else (0, 1)
    assert f"0 of 1 outputs byte-identical, {rounding} rounding, {moved} moved" in counts


def test_a_differing_stderr_is_moved(compare_outputs, monkeypatch, tmp_path, capsys):
    def run_side(src, argv, output):
        output.write_text(OUTPUT, encoding="utf-8")
        error = "error: line 7: bad\n" if src.endswith("change") else "error: line 8: bad\n"
        output.with_suffix(".err").write_text(error, encoding="utf-8")
        return 0

    monkeypatch.setattr(compare_outputs, "jobs", lambda work, algos: [("job0", ["0"])])
    monkeypatch.setattr(compare_outputs, "run_side", run_side)
    monkeypatch.setattr(sys, "path", list(sys.path))
    argv = ["compare_outputs.py", str(tmp_path / "parent"), str(tmp_path / "change")]
    monkeypatch.setattr(sys, "argv", argv + ["--work", str(tmp_path / "work")])
    assert compare_outputs.main() == 1
    line, counts = capsys.readouterr().out.splitlines()[:2]
    assert "DIFFERS  moved" in line and line.endswith("stderr differs")
    assert counts == "0 of 1 outputs byte-identical, 0 rounding, 1 moved, 0 exit codes differ"

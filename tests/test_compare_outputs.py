"""Exit status of ``scripts/compare_outputs.py``, with its CLI runs stubbed out."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
OUTPUT = "weights\n0 1.0\ncertificate\nlambda_min 1.0\nlambda_max 1.5\nsupport_size 1\n"


@pytest.fixture
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    def run_side(src, argv, output):
        change = src.endswith("change")
        output.write_text(change_text if change else OUTPUT, encoding="utf-8")
        return change_code if change else 0

    monkeypatch.setattr(compare_outputs, "jobs", lambda work, algos: [("one", [])])
    monkeypatch.setattr(compare_outputs, "run_side", run_side)
    monkeypatch.setattr(sys, "path", list(sys.path))
    argv = ["compare_outputs.py", str(tmp_path / "parent"), str(tmp_path / "change")]
    monkeypatch.setattr(sys, "argv", argv + ["--work", str(tmp_path / "work")])
    assert compare_outputs.main() == status

"""The hooks ``bench/spans.py`` puts on the package still find what they hook.

The traced benchmark wraps functions by module path and times two kernels
by name, so a rename or deletion in the package would otherwise show up
only as a warning or a crash in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from psdsparsify.instances import random_psd_collection
from psdsparsify.linalg import reduce_to_identity

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # load it read-only: no bytecode cache is written next to it
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_only_the_stale_trace_target_is_missing(spans):
    # cli no longer imports pe_sparsify; the benchmark still lists it
    with spans.traced_layers(spans.Tracer()) as missing:
        pass
    assert missing == ["psdsparsify.cli.pe_sparsify"]


def test_kernel_timings_run(spans):
    reduced = reduce_to_identity(random_psd_collection(3, 6, seed=0))
    timings = spans.kernel_timings(reduced, seed=0)
    assert sorted(timings) == ["linalg.eigh_us", "linalg.score_all_us", "linalg.sym_exp_us"]
    assert all(value > 0.0 for value in timings.values())

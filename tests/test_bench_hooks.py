"""The hooks ``bench/spans.py`` puts on the package still find what they hook.

The traced benchmark wraps functions by module path and times two kernels
by name, so a rename or deletion in the package would otherwise show up
only as a warning or a crash in a traced benchmark run.  A wrapper records
its span only if the package looks the wrapped name up in its module at
call time, which a few tiny ``sparsify`` jobs check for every target.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from psdsparsify import cli
from psdsparsify import io_formats as io
from psdsparsify.instances import complete_graph, random_psd_collection
from psdsparsify.linalg import reduce_to_identity

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# cli no longer imports pe_sparsify; the benchmark still lists it
STALE_TARGET = "psdsparsify.cli.pe_sparsify"


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
    with spans.traced_layers(spans.Tracer()) as missing:
        pass
    assert missing == [STALE_TARGET]


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_every_trace_target_is_looked_up_at_call_time(spans, tmp_path, monkeypatch):
    # a wrapper set on the module attribute must run: a function captured at
    # import (say, in a dispatch table) would leave its span and counts empty
    calls, wrapped = Counter(), []
    for module_name, attr, *_ in spans.TARGETS:
        target = f"{module_name}.{attr}"
        if target == STALE_TARGET:
            continue
        module = importlib.import_module(module_name)

        def counted(*args, _fn=getattr(module, attr), _target=target, **kwargs):
            calls[_target] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
        wrapped.append(target)
    matrices = _write(
        tmp_path / "matrices.txt", io.emit_matrix_collection(random_psd_collection(3, 8, seed=0))
    )
    g = complete_graph(4)
    graph = _write(tmp_path / "graph.txt", io.emit_graph(g))
    rng = np.random.default_rng(0)
    costs = _write(tmp_path / "costs.txt", io.emit_costs([rng.uniform(0.0, 1.0, g.m)]))
    jobs = [["--kind", "matrices", "--algo", algo, "--input", matrices]
            for algo in ("bss", "mmwum-wf", "mmwum-block", "pe")]
    jobs.append(["--kind", "graph", "--algo", "bss", "--input", graph, "--costs", costs])
    out = str(tmp_path / "out.txt")
    for job in jobs:
        assert cli.main([*job, "--eps", "0.5", "--output", out]) == 0
    assert [target for target in wrapped if not calls[target]] == []


def test_kernel_timings_run(spans):
    reduced = reduce_to_identity(random_psd_collection(3, 6, seed=0))
    timings = spans.kernel_timings(reduced, seed=0)
    assert sorted(timings) == ["linalg.eigh_us", "linalg.score_all_us", "linalg.sym_exp_us"]
    assert all(value > 0.0 for value in timings.values())

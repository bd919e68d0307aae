"""The one-sided sandwich wrapper around the raw algorithms."""

import math

import numpy as np
import pytest

from psdsparsify import sampling, solve
from psdsparsify.applications import edge_collection
from psdsparsify.errors import DegenerateCertificate, SparsifyError
from psdsparsify.instances import complete_graph, identity_decomposition, random_psd_collection
from psdsparsify.linalg import SandwichCertificate, SparsifierResult, reduce_to_identity


@pytest.mark.parametrize("lam_min", [0.0, -0.25, math.nan, math.inf])
def test_degenerate_lambda_min_raises(monkeypatch, lam_min):
    coll = random_psd_collection(4, 12, seed=0)

    def fake_run(reduced, eps, algo, seed=0, max_seconds=None):
        cert = SandwichCertificate(lambda_min=lam_min, lambda_max=1.2, support_size=len(reduced))
        return SparsifierResult(weights=np.ones(len(reduced)), certificate=cert)

    monkeypatch.setattr(solve, "run_algorithm", fake_run)
    with pytest.raises(DegenerateCertificate) as err:
        solve.sparsify_sum(coll, 0.5)
    assert isinstance(err.value, SparsifyError)


def test_pe_retry_decomposes_the_unit_stack_once(monkeypatch):
    # the closed-form T = 57 misses phi_0 + psi_0 < 1 here, so the run retries
    reduced = reduce_to_identity(identity_decomposition(4))
    units = np.stack(reduced.matrices) / reduced.traces[:, None, None]
    real_eigh = sampling.eigh
    of_units = []

    def counting_eigh(m):
        of_units.append(m.shape == units.shape and np.array_equal(m, units))
        return real_eigh(m)

    monkeypatch.setattr(sampling, "eigh", counting_eigh)
    result = solve.run_algorithm(reduced, 0.45, "pe")
    assert result.t_used == 67
    assert sum(of_units) == 1
    monkeypatch.undo()
    fresh = sampling.pe_sparsify(reduced, 0.45, t_total=67)
    assert np.array_equal(result.weights, fresh.weights)


@pytest.mark.parametrize("algo", ["pe", "aw-sample"])
def test_sparsify_sum_reports_the_budget_used(algo):
    coll = identity_decomposition(4)
    raw = solve.run_algorithm(reduce_to_identity(coll), solve.internal_epsilon(0.45), algo)
    assert raw.t_used is not None
    assert solve.sparsify_sum(coll, 0.45, algo=algo).t_used == raw.t_used


def test_sparsify_sum_reports_the_pe_retry_budget():
    # K5 misses phi_0 + psi_0 < 1 at the closed-form T and retries
    result = solve.sparsify_sum(edge_collection(complete_graph(5)), 0.45, algo="pe")
    closed_form = sampling.pe_iteration_count(result.reduced_rank, solve.internal_epsilon(0.45))
    assert result.t_used > closed_form


def test_sparsify_sum_reports_no_budget_for_bss():
    assert solve.sparsify_sum(identity_decomposition(4), 0.45).t_used is None

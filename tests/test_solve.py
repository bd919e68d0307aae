"""The one-sided sandwich wrapper around the raw algorithms."""

import math
import time

import numpy as np
import pytest

from psdsparsify import bss, linalg, mmwum_block, mmwum_wf, sampling, solve
from psdsparsify.applications import edge_collection
from psdsparsify.errors import (
    DegenerateCertificate,
    SamplesMissed,
    SparsifyError,
    TimeBudgetExceeded,
)
from psdsparsify.instances import complete_graph, identity_decomposition, random_psd_collection
from psdsparsify.linalg import (
    SandwichCertificate,
    SparsifierResult,
    certificate_for,
    reduce_to_identity,
)


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


@pytest.mark.parametrize("seed", [8, 12, 28])
def test_aw_sample_redraws_a_miss(seed):
    # the seed's own draw misses [1, 1.5]; a redraw lands inside it
    coll = identity_decomposition(6)
    eps = solve.internal_epsilon(0.5)
    first = sampling.aw_sample(reduce_to_identity(coll), eps, seed=seed)
    assert not solve.certificate_passes("aw-sample", eps, first.certificate)
    assert solve.sparsify_sum(coll, 0.5, algo="aw-sample", seed=seed).certificate.passes(0.5)


def test_aw_sample_keeps_a_draw_that_lands(monkeypatch):
    reduced = reduce_to_identity(identity_decomposition(6))
    eps = solve.internal_epsilon(0.5)
    seeds, aw_sample = [], sampling.aw_sample

    def recording(reduced, eps, seed=0):
        seeds.append(seed)
        return aw_sample(reduced, eps, seed=seed)

    monkeypatch.setattr(solve, "aw_sample", recording)
    result = solve.run_algorithm(reduced, eps, "aw-sample", seed=0)
    assert seeds == [0]
    assert result.weights.tobytes() == aw_sample(reduced, eps, seed=0).weights.tobytes()
    seeds.clear()
    solve.run_algorithm(reduced, eps, "aw-sample", seed=8)
    assert seeds[0] == 8 and seeds[1:] == [[8, k] for k in range(1, len(seeds))]


def test_aw_sample_raises_when_every_draw_misses(monkeypatch):
    monkeypatch.setattr(solve, "certificate_passes", lambda algo, eps, cert: False)
    with pytest.raises(SamplesMissed, match=f"{solve.AW_ATTEMPTS} draws from seed 3"):
        solve.sparsify_sum(identity_decomposition(6), 0.5, algo="aw-sample", seed=3)


def test_aw_sample_redraws_only_while_the_budget_lasts(monkeypatch):
    reduced = reduce_to_identity(identity_decomposition(6))
    eps = solve.internal_epsilon(0.5)
    seeds, aw_sample = [], sampling.aw_sample

    def slow_miss(reduced, eps, seed=0):
        seeds.append(seed)
        time.sleep(0.01)
        return aw_sample(reduced, eps, seed=seed)

    monkeypatch.setattr(solve, "aw_sample", slow_miss)
    monkeypatch.setattr(solve, "certificate_passes", lambda algo, eps, cert: False)
    with pytest.raises(TimeBudgetExceeded, match=r"aw-sample exceeded 0.025 s at iteration \d"):
        solve.run_algorithm(reduced, eps, "aw-sample", max_seconds=0.025)
    # 20 draws take 0.2 s, so the budget ran out first
    assert 1 <= len(seeds) < solve.AW_ATTEMPTS


@pytest.mark.parametrize("algo", ["pe", "aw-sample"])
def test_sparsify_sum_reports_the_budget_used(algo):
    coll = identity_decomposition(4)
    raw = solve.run_algorithm(reduce_to_identity(coll), solve.internal_epsilon(0.45), algo)
    assert raw.t_used is not None
    assert solve.sparsify_sum(coll, 0.45, algo=algo).t_used == raw.t_used


def test_sparsify_sum_reports_the_pe_budget():
    # the one budget runs: there is no retry at a larger one
    result = solve.sparsify_sum(edge_collection(complete_graph(5)), 0.45, algo="pe")
    budget = sampling.pe_iteration_count(result.reduced_rank, solve.internal_epsilon(0.45))
    assert result.t_used == budget


def test_sparsify_sum_reports_no_budget_for_bss():
    # bss quantizes by no budget; its t_used counts the steps it ran
    result = solve.sparsify_sum(identity_decomposition(4), 0.45)
    steps = bss.BssParams.from_epsilon(solve.internal_epsilon(0.45), result.reduced_rank).T
    assert result.t_used == steps


# eps 0.9 runs at the internal accuracy 0.31, where mmwum-block takes about
# 24k steps at rank 6
ONE_PATH_EPS = 0.9
ONE_PATH_INSTANCES = {
    "random": lambda: random_psd_collection(6, 30, seed=7),
    "k5": lambda: edge_collection(complete_graph(5)),
}
# algorithm: the module whose solver ends with certificate_for
SOLVER_MODULES = {
    "bss": bss,
    "mmwum-wf": mmwum_wf,
    "mmwum-block": mmwum_block,
    "aw-sample": sampling,
    "pe": sampling,
}


@pytest.mark.parametrize("name", sorted(ONE_PATH_INSTANCES))
@pytest.mark.parametrize("algo", solve.ALGORITHMS)
def test_every_certificate_comes_from_the_weights(monkeypatch, algo, name):
    coll = ONE_PATH_INSTANCES[name]()
    run_algorithm, raws = solve.run_algorithm, []

    def recording_run(*args, **kwargs):
        raws.append(run_algorithm(*args, **kwargs))
        return raws[-1]

    monkeypatch.setattr(solve, "run_algorithm", recording_run)
    result = solve.sparsify_sum(coll, ONE_PATH_EPS, algo=algo)
    (raw,) = raws
    reduced = reduce_to_identity(coll)
    again = certificate_for(reduced, raw.weights)
    if algo == "bss":  # rescaled once already
        assert raw.certificate.lambda_min == 1.0
        assert raw.certificate.lambda_max == pytest.approx(again.lambda_max, rel=1e-12)
    else:
        assert raw.certificate == again
    assert result.certificate.lambda_min == 1.0
    again = certificate_for(reduced, result.weights)
    assert again.lambda_min == pytest.approx(1.0, rel=1e-12)
    assert result.certificate.lambda_max == pytest.approx(again.lambda_max, rel=1e-12)


@pytest.mark.parametrize("algo", solve.ALGORITHMS)
def test_a_degenerate_certificate_raises_from_the_shared_rescale(monkeypatch, algo):
    def degenerate(reduced, y):
        return SandwichCertificate(lambda_min=0.0, lambda_max=1.0, support_size=len(y))

    monkeypatch.setattr(SOLVER_MODULES[algo], "certificate_for", degenerate)
    coll = ONE_PATH_INSTANCES["k5"]()
    if algo == "aw-sample":  # a degenerate draw is a miss, redrawn until the attempts run out
        with pytest.raises(SamplesMissed, match=f"{solve.AW_ATTEMPTS} draws from seed 0"):
            solve.sparsify_sum(coll, ONE_PATH_EPS, algo=algo)
        return
    with pytest.raises(DegenerateCertificate, match=f"{algo} returned lambda_min = 0.0") as err:
        solve.sparsify_sum(coll, ONE_PATH_EPS, algo=algo)
    assert err.traceback[-1].frame.code.raw is linalg.rescaled.__code__

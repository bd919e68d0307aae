"""The driver the four scanning solvers share, and the rules it owns."""

import warnings

import numpy as np
import pytest

from psdsparsify import scan
from psdsparsify.bss import BssParams
from psdsparsify.errors import InvalidMatrix, TimeBudgetExceeded
from psdsparsify.instances import random_psd_collection
from psdsparsify.linalg import (
    PsdCollection,
    ReducedInstance,
    eigh,
    reduce_to_identity,
    symmetrize,
)
from psdsparsify.mmwum_block import BlockParams
from psdsparsify.mmwum_wf import WfParams
from psdsparsify.sampling import aw_iteration_count
from psdsparsify.solve import SCHEDULES, internal_epsilon, run_algorithm, sparsify_sum

from pickseq import SOLVERS

SCANNING = sorted(SOLVERS)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("solver", SCANNING)
def test_deadline_raises_directly_and_through_the_wrapper(solver, reduced_random):
    solve = SOLVERS[solver][2]
    with pytest.raises(TimeBudgetExceeded, match=f"{solver} exceeded"):
        solve(reduced_random, 0.5, max_seconds=1e-9)
    with pytest.raises(TimeBudgetExceeded):
        sparsify_sum(random_psd_collection(6, 30, seed=7), 0.5, algo=solver, max_seconds=1e-9)


@pytest.mark.parametrize("solver", SCANNING)
def test_nan_in_a_picked_member_raises_at_the_next_step(solver, monkeypatch):
    module, pick_name, solve, _ = SOLVERS[solver]
    pick = getattr(module, pick_name)
    picks = []
    stop = True

    def recording_pick(*args):
        picks.append(pick(*args))
        if stop:
            raise _Stop
        # the member is scored already, so only the update reads the NaN
        reduced.rows[reduced.bounds[picks[-1][0]], 0] = np.nan
        return picks[-1]

    monkeypatch.setattr(module, pick_name, recording_pick)
    reduced = reduce_to_identity(random_psd_collection(6, 30, seed=7))
    with pytest.raises(_Stop):
        solve(reduced, 0.5)
    ((j, _),) = picks
    picks.clear()
    stop = False
    with pytest.raises(InvalidMatrix, match="non-finite"):
        solve(reduced, 0.5)
    assert len(picks) == 1
    assert picks[0][0] == j


def test_a_hand_built_member_is_symmetrized_once(reduced_random, monkeypatch):
    skewed = np.stack([reduced_random.member(j) for j in range(len(reduced_random))])
    skewed[:, 0, 1] += 1e-9
    hand = ReducedInstance.factored([skewed])
    # factored from the average of each member and its transpose, not from one triangle
    averaged = ReducedInstance.factored([symmetrize(skewed)])
    assert hand.rows.tobytes() == averaged.rows.tobytes()
    decomposed = []

    def recording_eigh(a):
        decomposed.append(a.copy())
        return eigh(a)

    monkeypatch.setattr(scan, "eigh", recording_eigh)
    potential = WfParams.from_epsilon(0.5, hand.rank)
    y, _ = scan.drive(hand, potential, None)
    assert np.count_nonzero(y) > 1
    assert len(decomposed) == potential.T
    assert all(np.array_equal(a, a.T) for a in decomposed)


@pytest.mark.parametrize("solver", SCANNING)
def test_a_run_returns_every_pick_of_the_driver(solver, monkeypatch):
    driven, drive = [], scan.drive

    def recording_drive(*args):
        y, picks = drive(*args)
        driven.append(y.copy())
        return y, picks

    monkeypatch.setattr(scan, "drive", recording_drive)
    coll = random_psd_collection(6, 30, seed=7)
    rank = reduce_to_identity(coll).rank
    runs = (
        (0.45, lambda: run_algorithm(reduce_to_identity(coll), 0.45, solver)),
        (internal_epsilon(0.45), lambda: sparsify_sum(coll, 0.45, algo=solver)),
    )
    for eps, run in runs:
        result = run()
        (y,) = driven
        driven.clear()
        assert result.t_used == len(result.picks) == SCHEDULES[solver].from_epsilon(eps, rank).T
        # the weights are the picks' alphas added in step order
        rebuilt = np.zeros(len(coll))
        for j, alpha in result.picks:
            rebuilt[j] += alpha
        assert rebuilt.tobytes() == y.tobytes()


def test_aw_sample_counts_its_draws_and_has_no_picks():
    coll = random_psd_collection(6, 30, seed=7)
    rank = reduce_to_identity(coll).rank
    for eps, result in (
        (0.45, run_algorithm(reduce_to_identity(coll), 0.45, "aw-sample")),
        (internal_epsilon(0.45), sparsify_sum(coll, 0.45, algo="aw-sample")),
    ):
        assert result.t_used == aw_iteration_count(rank, eps)
        assert result.picks is None


@pytest.mark.parametrize("schedule", [BssParams, WfParams, BlockParams], ids=lambda p: p.name)
@pytest.mark.parametrize(
    "eps,n,message",
    [
        (0.0, 3, r"eps must lie in \(0, 1\)"),
        (1.0, 3, r"eps must lie in \(0, 1\)"),
        (-0.5, 3, r"eps must lie in \(0, 1\)"),
        (float("nan"), 3, r"eps must lie in \(0, 1\)"),
        (0.5, 0, "n must be positive"),
        (0.5, -2, "n must be positive"),
    ],
)
def test_schedules_share_the_eps_and_rank_check(schedule, eps, n, message):
    with pytest.raises(ValueError, match=message):
        schedule.from_epsilon(eps, n)


@pytest.mark.parametrize("algo", ["mmwum-block", "pe"])
def test_a_member_with_no_trace_warns_nothing(algo):
    # its score divides 0 by 0, which only the driver's errstate keeps quiet
    stack = random_psd_collection(6, 30, seed=7).matrices
    coll = PsdCollection.from_matrices(np.concatenate([stack[:3], np.zeros((1, 6, 6)), stack[3:]]))
    reduced = reduce_to_identity(coll)
    assert not reduced.has_trace[3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_algorithm(reduced, 0.45, algo)
    assert result.weights[3] == 0.0
    assert result.certificate.within_window(0.55, 1.45)

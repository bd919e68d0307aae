"""The scanning driver that ``bss``, ``mmwum-wf`` and ``mmwum-block`` share."""

import numpy as np
import pytest

from psdsparsify import scan
from psdsparsify.errors import InvalidMatrix, TimeBudgetExceeded
from psdsparsify.instances import random_psd_collection
from psdsparsify.linalg import ReducedInstance, eigh, reduce_to_identity, symmetrize
from psdsparsify.mmwum_wf import WfParams, _Densities
from psdsparsify.solve import sparsify_sum

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
    hand = ReducedInstance.factored([skewed], reduced_random.basis, reduced_random.whitener)
    # factored from the average of each member and its transpose, not from one triangle
    averaged = ReducedInstance.factored([symmetrize(skewed)], hand.basis, hand.whitener)
    assert hand.rows.tobytes() == averaged.rows.tobytes()
    decomposed = []

    def recording_eigh(a):
        decomposed.append(a.copy())
        return eigh(a)

    monkeypatch.setattr(scan, "eigh", recording_eigh)
    potential = _Densities(WfParams.from_epsilon(0.5, hand.rank), hand)
    y = scan.drive(hand, potential, None, None)
    assert np.count_nonzero(y) > 1
    assert len(decomposed) == potential.T
    assert all(np.array_equal(a, a.T) for a in decomposed)

"""Compare a scanning solver's picks under the factored kernel and a dense reference.

``compare_picks`` runs a solver twice on the same instance: once as it is,
scoring candidates with ``ReducedInstance.scores_in_basis`` through the
factor rows, and once with ``dense_scores_in_basis`` put in its place,
which forms each score matrix Q diag(c) Q^T and takes its trace inner
product with every dense member.  Each run records, per step, the scores
its pick function received and the (index, step) it returned.  The
report gives the first step whose pick differs, the relative gap of the
solver's pick criterion between the two picks there, and the largest
relative difference of the step size while the picks agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from psdsparsify import bss, mmwum_block, mmwum_wf
from psdsparsify.linalg import ReducedInstance, symmetrize


def dense_scores_in_basis(self: ReducedInstance, q: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``scores_in_basis`` from the dense members, one score matrix per column."""
    flat = np.stack(self.matrices).reshape(len(self.matrices), -1)
    return np.column_stack([flat @ symmetrize((q * c) @ q.T).ravel() for c in coeffs.T])


# Each criterion maps the pick function's arguments to the value the pick
# maximizes and the size of the terms that value is made of.


def _bss_criterion(scores_u, scores_l, reduced):
    return scores_l - scores_u, scores_l + scores_u


def _wf_criterion(scores_u, scores_l, reduced, params):
    lower, upper = scores_l / params.delta_L, scores_u / params.delta_U
    return lower - reduced.traces - upper, lower + reduced.traces + upper


def _block_criterion(scores_1, scores_2, tr_x1, tr_x2, reduced, eta):
    with np.errstate(divide="ignore", invalid="ignore"):
        widths = reduced.traces / (scores_1 / tr_x1)
    return -widths, widths


# solver: (module, pick function, solve function, pick criterion)
SOLVERS = {
    "bss": (bss, "_bss_pick", bss.bss_sparsify, _bss_criterion),
    "mmwum-wf": (mmwum_wf, "_wf_pick", mmwum_wf.wf_sparsify, _wf_criterion),
    "mmwum-block": (mmwum_block, "_block_pick", mmwum_block.block_sparsify, _block_criterion),
}


@dataclass(frozen=True)
class Step:
    """One pick: the arguments of the pick function (scores first) and its answer."""

    args: tuple
    j: int
    alpha: float


@dataclass(frozen=True)
class PickComparison:
    """Kernel run against the dense reference run of one solver.

    ``first_difference`` is the 1-based step of the first differing pick
    (None when all agree); ``picks`` is (kernel pick, reference pick)
    there and ``score_gap`` the gap of the pick criterion between them,
    on the reference scores, relative to the size of its terms.
    ``alpha_rel_max`` is the largest relative step-size difference over
    the steps before it.
    """

    kernel: list
    reference: list
    first_difference: int | None
    picks: tuple | None
    score_gap: float | None
    alpha_rel_max: float
    weights: tuple


class _Stop(Exception):
    pass


def _run(solver: str, reduced: ReducedInstance, eps: float, max_steps: int | None, dense: bool):
    module, pick_name, solve, _ = SOLVERS[solver]
    pick = getattr(module, pick_name)
    steps = []

    def recording_pick(*args):
        j, alpha = pick(*args)
        steps.append(Step(args=args, j=j, alpha=alpha))
        if max_steps is not None and len(steps) >= max_steps:
            raise _Stop
        return j, alpha

    weights = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, pick_name, recording_pick)
        if dense:
            mp.setattr(ReducedInstance, "scores_in_basis", dense_scores_in_basis)
        try:
            weights = solve(reduced, eps).weights
        except _Stop:
            pass
    return steps, weights


def compare_picks(
    solver: str, reduced: ReducedInstance, eps: float, max_steps: int | None = None
) -> PickComparison:
    """Run ``solver`` with the kernel and with the dense reference and compare.

    With ``max_steps`` both runs stop after that many picks and report no
    weights.
    """
    kernel, w_kernel = _run(solver, reduced, eps, max_steps, dense=False)
    reference, w_reference = _run(solver, reduced, eps, max_steps, dense=True)
    criterion = SOLVERS[solver][3]
    first = picks = gap = None
    alpha_rel = 0.0
    for t, (k, r) in enumerate(zip(kernel, reference), start=1):
        if k.j != r.j:
            first, picks = t, (k.j, r.j)
            values, size = criterion(*r.args)
            gap = float(abs(values[k.j] - values[r.j]) / max(size[k.j], size[r.j]))
            break
        alpha_rel = max(alpha_rel, abs(k.alpha - r.alpha) / abs(r.alpha))
    return PickComparison(
        kernel=kernel,
        reference=reference,
        first_difference=first,
        picks=picks,
        score_gap=gap,
        alpha_rel_max=alpha_rel,
        weights=(w_kernel, w_reference),
    )

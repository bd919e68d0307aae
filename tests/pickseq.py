"""Compare a solver's picks under its kernel and under a reference arithmetic.

``compare_picks`` runs a scanning solver twice on the same instance: once
as it is, scoring candidates with ``ReducedInstance.scores_in_basis``
through the factor rows, and once with ``dense_scores_in_basis`` put in
its place, which forms each score matrix Q diag(c) Q^T and takes its
trace inner product with every dense member.  Each run records, per step,
the scores its pick function received and the (index, step) it returned.

``compare_pe_picks`` does the same for ``pe``: the kernel scores every
candidate from the eigenvalues of its pick sum P + X_j, and the reference
step keeps the two exponent sums -t P and t' P as accumulators and
decomposes their symmetrized candidate stacks with two stacked ``eigh``.

The report gives the first step whose pick differs, the relative gap of
the solver's pick criterion between the two picks there, and the largest
relative difference of the step size while the picks agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from psdsparsify import bss, mmwum_block, mmwum_wf, sampling
from psdsparsify.linalg import ReducedInstance, eigh, symmetrize
from psdsparsify.solve import run_algorithm


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


def _pe_criterion(values):
    # pe minimizes phi + psi; a member that is not live scores inf
    return -values, np.abs(values)


# solver: (module, pick function, solve function, pick criterion)
SOLVERS = {
    "bss": (bss, "_bss_pick", bss.bss_sparsify, _bss_criterion),
    "mmwum-wf": (mmwum_wf, "_wf_pick", mmwum_wf.wf_sparsify, _wf_criterion),
    "mmwum-block": (mmwum_block, "_block_pick", mmwum_block.block_sparsify, _block_criterion),
}


@dataclass(frozen=True)
class Step:
    """One pick: the arguments of the pick function (scores first) and its answer.

    A ``pe`` step has one argument, the reference's phi + psi of every
    member, and size 1.
    """

    args: tuple
    j: int
    alpha: float


@dataclass(frozen=True)
class PickComparison:
    """Kernel run against the reference run of one solver.

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
    return _compare(kernel, reference, SOLVERS[solver][3], (w_kernel, w_reference))


def _compare(kernel: list, reference: list, criterion, weights: tuple) -> PickComparison:
    first = picks = gap = None
    alpha_rel = 0.0
    for t, (k, r) in enumerate(zip(kernel, reference), start=1):
        if k.j != r.j:
            first, picks = t, (k.j, r.j)
            gap = _gap(criterion, r.args, k.j, r.j)
            break
        alpha_rel = max(alpha_rel, abs(k.alpha - r.alpha) / abs(r.alpha))
    return PickComparison(
        kernel=kernel,
        reference=reference,
        first_difference=first,
        picks=picks,
        score_gap=gap,
        alpha_rel_max=alpha_rel,
        weights=weights,
    )


def _gap(criterion, args: tuple, a: int, b: int) -> float:
    values, size = criterion(*args)
    return float(abs(values[a] - values[b]) / max(size[a], size[b]))


def reference_pe_values(state, lower_sum: np.ndarray, upper_sum: np.ndarray):
    """phi + psi of every live candidate from two exponent-sum accumulators.

    Returns the values and the two symmetrized candidate stacks, each
    decomposed with one stacked ``eigh``.
    """
    lower = symmetrize(lower_sum - state.t_minus * state.units)
    upper = symmetrize(upper_sum + state.t_plus * state.units)
    values = state._estimate(eigh(lower).eigenvalues, eigh(upper).eigenvalues, state.t + 1)
    return values, lower, upper


def _by_member(state, values: np.ndarray, m: int) -> np.ndarray:
    out = np.full(m, np.inf)
    out[state.live] = values
    return out


def _run_pe(reduced: ReducedInstance, eps: float, max_steps: int | None, reference: bool):
    kernel_step = sampling.pe_greedy_step
    steps = []
    sums = {}

    def recording_step(state):
        if reference:
            if state.t == 0:
                sums["lower"] = sums["upper"] = np.zeros_like(state.picked_sum)
            values, lower, upper = reference_pe_values(state, sums["lower"], sums["upper"])
            k = int(np.argmin(values))
            sums["lower"], sums["upper"] = lower[k].copy(), upper[k].copy()
            j = int(state.live[k])
            state.picks.append(j)
            state.estimator_trace.append(float(values[k]))
        else:
            # the reference's scores on the kernel's own history
            values = reference_pe_values(state, state.exp_sum_lower, state.exp_sum_upper)[0]
            j = kernel_step(state)
        steps.append(Step(args=(_by_member(state, values, len(reduced)),), j=j, alpha=1.0))
        if max_steps is not None and len(steps) >= max_steps:
            raise _Stop
        return j

    weights = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "pe_greedy_step", recording_step)
        try:
            weights = run_algorithm(reduced, eps, "pe").weights
        except _Stop:
            pass
    return steps, weights


def compare_pe_picks(
    reduced: ReducedInstance, eps: float, max_steps: int | None = None
) -> PickComparison:
    """Run ``pe`` (with its retry) under the kernel and the reference step and compare.

    ``score_gap`` is the gap of phi + psi between the two picks at the
    first moved step, on the reference's values, relative to the larger.
    With ``max_steps`` both runs stop after that many picks and report no
    weights.
    """
    kernel, w_kernel = _run_pe(reduced, eps, max_steps, reference=False)
    reference, w_reference = _run_pe(reduced, eps, max_steps, reference=True)
    return _compare(kernel, reference, _pe_criterion, (w_kernel, w_reference))


def pe_lockstep_moves(report: PickComparison) -> list:
    """(step, kernel pick, reference pick, gap) at every step of the kernel run
    where the reference's values on the same history pick another member.

    Unlike ``first_difference`` this keeps comparing after a moved pick,
    since both arithmetics score the kernel's own history.
    """
    moves = []
    for t, step in enumerate(report.kernel, start=1):
        (values,) = step.args
        best = int(np.argmin(values))
        if best != step.j:
            moves.append((t, step.j, best, _gap(_pe_criterion, step.args, step.j, best)))
    return moves

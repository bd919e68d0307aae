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

``reference_bss_sparsify``, ``reference_wf_sparsify`` and
``reference_block_sparsify`` are the three scanning loops as they were
before ``scan.drive`` took them over, with their step and pick functions,
copied verbatim: each keeps its own loop, deadline and symmetrized update,
and appends the same (j, alpha) pairs to ``history``.  ``BssState`` is the
loop state of ``reference_bss_sparsify``.
``compare_with_reference`` runs a solver and its reference loop on the
same instance.  ``replay`` rebuilds the running sum A of every step from
a ``history=`` list; ``assert_bss_invariants`` and ``assert_wf_chain``
check the invariants of ``bss`` and ``mmwum-wf`` on it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from psdsparsify import bss, mmwum_block, mmwum_wf, sampling
from psdsparsify.bss import (
    BssParams,
    _lower_coefficients,
    _upper_coefficients,
    phi_lower,
    phi_upper,
)
from psdsparsify.errors import ExpOverflow, OracleInfeasible, StepNotFound, TimeBudgetExceeded
from psdsparsify.linalg import (
    EXP_OVERFLOW_LIMIT,
    ReducedInstance,
    SandwichCertificate,
    SparsifierResult,
    certificate_for,
    eigh,
    symmetrize,
)
from psdsparsify.mmwum_block import BlockParams
from psdsparsify.mmwum_wf import WfParams, psi_lower, psi_upper
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
        else:
            # the reference's scores on the kernel's own history
            p = state.picked_sum
            values = reference_pe_values(state, -state.t_minus * p, state.t_plus * p)[0]
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


@dataclass
class BssState:
    """Mutable loop state: accumulated A, weights, and iteration count."""

    A: np.ndarray
    y: np.ndarray
    t: int = 0


def _reference_barrier_scores(
    a: np.ndarray, reduced: ReducedInstance, u: float, ell: float, params: BssParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectrum of A and U_A(C_j), L_A(C_j) for every member, from one eigh."""
    spec = eigh(a)
    w = spec.eigenvalues
    coeffs = np.column_stack(
        (_upper_coefficients(w, u, params.delta_U), _lower_coefficients(w, ell, params.delta_L))
    )
    scores = reduced.scores_in_basis(spec.eigenvectors, coeffs)
    return w, scores[:, 0], scores[:, 1]


def _reference_bss_step(
    state: BssState, reduced: ReducedInstance, params: BssParams
) -> tuple[int, float]:
    """Pick the next (index, step size) pair.

    Scores every candidate by the feasibility gap L_A(C_j) - U_A(C_j) and
    returns the widest gap (lowest index on ties) with 1/alpha set to the
    midpoint (U + L)/2, the point of maximal margin for both one-sided
    guarantees.  Both score matrices are functions of A, so one
    eigendecomposition of A gives both coefficient vectors, and every
    candidate is scored in that eigenbasis through its factor rows.
    """
    u = params.upper_barrier(state.t)
    ell = params.lower_barrier(state.t)
    _, scores_u, scores_l = _reference_barrier_scores(state.A, reduced, u, ell, params)
    return _reference_bss_pick(scores_u, scores_l, reduced)


def _reference_bss_pick(
    scores_u: np.ndarray, scores_l: np.ndarray, reduced: ReducedInstance
) -> tuple[int, float]:
    """``_reference_bss_step`` from the scores U_A(C_j) and L_A(C_j)."""
    nonzero = reduced.traces > 0.0
    feasible = nonzero & (scores_u > 0.0) & (scores_l >= scores_u)
    if not np.any(feasible):
        raise StepNotFound(
            "no candidate satisfies L >= U > 0 "
            f"(sum U = {scores_u[nonzero].sum()}, sum L = {scores_l[nonzero].sum()})",
            sum_upper=float(scores_u[nonzero].sum()),
            sum_lower=float(scores_l[nonzero].sum()),
        )
    gaps = np.where(feasible, scores_l - scores_u, -np.inf)
    j = int(np.argmax(gaps))
    alpha = 2.0 / (scores_u[j] + scores_l[j])
    return j, alpha


def reference_bss_sparsify(
    reduced: ReducedInstance,
    eps: float,
    history: list | None = None,
    max_seconds: float | None = None,
) -> SparsifierResult:
    """Run the barrier-potential sparsifier to completion.

    Returns weights scaled by 1/lambda_min(A(T)), so the certificate has
    lambda_min = 1 and lambda_max <= ((2+eps)/(2-eps))^2 up to rounding.
    Support is at most T = ceil(4r/eps^2).
    """
    params = BssParams.from_epsilon(eps, reduced.rank)
    state = BssState(
        A=np.zeros((reduced.rank, reduced.rank)),
        y=np.zeros(len(reduced)),
    )
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    for t in range(1, params.T + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(f"bss exceeded {max_seconds} s at iteration {t}")
        j, alpha = _reference_bss_step(state, reduced, params)
        state.A = symmetrize(state.A + alpha * reduced.matrices[j])
        state.y[j] += alpha
        state.t = t
        if history is not None:
            history.append((j, alpha))
    w = eigh(state.A).eigenvalues
    lam_min = float(w[0])
    y = state.y / lam_min
    cert = SandwichCertificate(
        lambda_min=float(w[0] / lam_min),
        lambda_max=float(w[-1] / lam_min),
        support_size=int(np.count_nonzero(y > 0.0)),
    )
    return SparsifierResult(weights=y, certificate=cert)


def _reference_wf_pick(
    scores_u: np.ndarray, scores_l: np.ndarray, reduced: ReducedInstance, params: WfParams
) -> tuple[int, float]:
    """``wf_oracle`` from the scores <X_U, C_j> and <X_L, C_j>."""
    traces = reduced.traces
    candidates = traces > 0.0
    slack = np.where(
        candidates,
        scores_l / params.delta_L - traces - scores_u / params.delta_U,
        -np.inf,
    )
    j = int(np.argmax(slack))
    # the averaging identity can hold with exact equality, so allow the
    # best slack to sit a rounding error below zero
    magnitude = scores_l[j] / params.delta_L + traces[j] + scores_u[j] / params.delta_U
    if not np.isfinite(slack[j]) or slack[j] < -1e-9 * magnitude:
        raise OracleInfeasible(
            f"no index satisfies the averaging inequality (best slack {slack[j]})"
        )
    tr = traces[j]
    alpha = math.log1p(params.delta_U * tr / scores_u[j]) / (params.gamma * tr)
    return j, alpha


def reference_wf_sparsify(
    reduced: ReducedInstance,
    eps: float,
    gamma: float | None = None,
    history: list | None = None,
    max_seconds: float | None = None,
) -> SparsifierResult:
    """Run the width-free update for T rounds and return the scaled average.

    The final weights are y * (r * gamma / (eta * T)); with the default
    gamma = eta/r this is y/T.  Certificate eigenvalues land inside
    [1 - eps, 1 + eps] and support is at most T.
    """
    params = WfParams.from_epsilon(eps, reduced.rank, gamma=gamma)
    r = reduced.rank
    a = np.zeros((r, r))
    y = np.zeros(len(reduced))
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    for t in range(1, params.T + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(f"mmwum-wf exceeded {max_seconds} s at iteration {t}")
        spec = eigh(a)
        w_here, q = spec.eigenvalues, spec.eigenvectors
        if params.gamma * float(w_here[-1]) > EXP_OVERFLOW_LIMIT:
            raise ExpOverflow("gamma * lambda_max exceeds the overflow guard")
        exp_plus = np.exp(params.gamma * w_here)
        exp_minus = np.exp(-params.gamma * w_here)
        # X_U and X_L are Q diag(exp(+-gamma w) / sum) Q^T
        coeffs = np.column_stack((exp_plus / exp_plus.sum(), exp_minus / exp_minus.sum()))
        scores = reduced.scores_in_basis(q, coeffs)
        j, alpha = _reference_wf_pick(scores[:, 0], scores[:, 1], reduced, params)
        a = symmetrize(a + alpha * reduced.matrices[j])
        y[j] += alpha
        if history is not None:
            history.append((j, alpha))
    scale = r * params.gamma / (params.eta * params.T)
    y_bar = y * scale
    w = eigh(a).eigenvalues * scale
    cert = SandwichCertificate(
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
        support_size=int(np.count_nonzero(y_bar > 0.0)),
    )
    return SparsifierResult(weights=y_bar, certificate=cert)


def _reference_block_pick(
    scores_1: np.ndarray,
    scores_2: np.ndarray,
    tr_x1: float,
    tr_x2: float,
    reduced: ReducedInstance,
    eta: float,
) -> tuple[int, float]:
    """``block_oracle`` from the scores <X1, C_j>, <X2, C_j> and both traces."""
    traces = reduced.traces
    nonzero = traces > 0.0
    p = scores_1 / tr_x1
    with np.errstate(divide="ignore", invalid="ignore"):
        cond_x2 = scores_2 / p
        widths = traces / p
    rho = (1.0 + eta) * reduced.rank / eta
    feasible = nonzero & (p > 0.0) & (cond_x2 <= (1.0 + eta) * tr_x2) & (widths <= rho)
    if not np.any(feasible):
        raise OracleInfeasible("no index satisfies both Markov conditions")
    widths = np.where(feasible, widths, np.inf)
    j = int(np.argmin(widths))
    return j, float(1.0 / p[j])


def reference_block_sparsify(
    reduced: ReducedInstance,
    eps: float,
    history: list | None = None,
    max_seconds: float | None = None,
) -> SparsifierResult:
    """Run the two-block update for T rounds and average the oracle answers.

    Certificate eigenvalues land inside [1 - eps, 1 + eps]; support is at
    most T = ceil(2 (rho + ell) ln n / (beta eps)).
    """
    params = BlockParams.from_epsilon(eps, reduced.rank)
    r = reduced.rank
    # sum of alpha C_j over the picks: block 1's loss sum up to a multiple of I
    loss_sum = np.zeros((r, r))
    y_sum = np.zeros(len(reduced))
    scale = -params.beta / (params.ell + params.rho)
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    for t in range(1, params.T + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(
                f"mmwum-block exceeded {max_seconds} s at iteration {t}"
            )
        spec = eigh(loss_sum)
        exponents = scale * spec.eigenvalues
        top = max(float(np.max(exponents)), -float(np.min(exponents)))
        if top > EXP_OVERFLOW_LIMIT:
            raise ExpOverflow(f"largest exponent {top:.2f} exceeds {EXP_OVERFLOW_LIMIT}")
        # W1 = exp(scale S) and W2 = exp(-scale S) share the eigenbasis of S
        coeffs = np.column_stack((np.exp(exponents), np.exp(-exponents)))
        scores = reduced.scores_in_basis(spec.eigenvectors, coeffs)
        tr_w1, tr_w2 = coeffs.sum(axis=0)
        j, alpha = _reference_block_pick(
            scores[:, 0], scores[:, 1], tr_w1, tr_w2, reduced, params.eta
        )
        loss_sum = symmetrize(loss_sum + alpha * reduced.matrices[j])
        y_sum[j] += alpha
        if history is not None:
            history.append((j, alpha))
    y_bar = y_sum / params.T
    return SparsifierResult(weights=y_bar, certificate=certificate_for(reduced, y_bar))


REFERENCES = {
    "bss": reference_bss_sparsify,
    "mmwum-wf": reference_wf_sparsify,
    "mmwum-block": reference_block_sparsify,
}

# solver: its schedule, whose ``from_epsilon(eps, rank).T`` is the step count
PARAMS = {"bss": BssParams, "mmwum-wf": WfParams, "mmwum-block": BlockParams}


@dataclass(frozen=True)
class ReferenceRun:
    """A solver against its reference loop on one instance.

    ``result`` and ``picks`` come from the solver without ``history=``,
    the picks as its pick function returned them; ``history`` and
    ``history_result`` come from a second run with ``history=[]``.
    ``reference_result`` and ``reference_history`` are the reference
    loop's, from one run with ``history=[]``.
    """

    result: SparsifierResult
    picks: list
    history: list
    history_result: SparsifierResult
    reference_result: SparsifierResult
    reference_history: list


def compare_with_reference(solver: str, reduced: ReducedInstance, eps: float) -> ReferenceRun:
    module, pick_name, solve, _ = SOLVERS[solver]
    pick = getattr(module, pick_name)
    picks = []

    def recording_pick(*args):
        picks.append(pick(*args))
        return picks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, pick_name, recording_pick)
        result = solve(reduced, eps)
    history, reference_history = [], []
    history_result = solve(reduced, eps, history=history)
    reference_result = REFERENCES[solver](reduced, eps, history=reference_history)
    return ReferenceRun(
        result=result,
        picks=picks,
        history=history,
        history_result=history_result,
        reference_result=reference_result,
        reference_history=reference_history,
    )


def replay(reduced: ReducedInstance, history: list):
    """Yield (t, j, alpha, A before, A after) for every step t of a ``history=`` list.

    A starts at 0 and takes A + alpha C_j in the driver's arithmetic, not
    symmetrized, so with exactly symmetric members (whitened ones are)
    each A has the bits of the driver's A at that step.
    """
    a = np.zeros((reduced.rank, reduced.rank))
    for t, (j, alpha) in enumerate(history, start=1):
        before, a = a, a + alpha * reduced.matrices[j]
        yield t, j, alpha, before, a


def assert_bss_invariants(reduced: ReducedInstance, eps: float, history: list) -> int:
    """Assert the barrier invariants of ``bss`` after every step of ``history``.

    After step t, both potentials at the barriers u_t and ell_t are at most
    their values a step earlier (eps_U and eps_L at the start), the
    spectrum of A lies strictly between the barriers, and the scan sums
    over all members, sum L_A(C_j) and sum U_A(C_j), keep sum L >= sum U,
    so the next step has a feasible candidate.  Returns the step count.
    """
    params = BssParams.from_epsilon(eps, reduced.rank)
    prev_u, prev_l = params.eps_U, params.eps_L
    for t, _, _, _, a in replay(reduced, history):
        u, ell = params.upper_barrier(t), params.lower_barrier(t)
        phi_u, phi_l = phi_upper(a, u), phi_lower(a, ell)
        assert phi_u <= prev_u * (1 + 1e-9)
        assert phi_l <= prev_l * (1 + 1e-9)
        spec = eigh(a)
        w = spec.eigenvalues
        assert w[-1] < u
        assert w[0] > ell
        coeffs = np.column_stack(
            (_upper_coefficients(w, u, params.delta_U), _lower_coefficients(w, ell, params.delta_L))
        )
        scores = reduced.scores_in_basis(spec.eigenvectors, coeffs)
        assert scores[:, 1].sum() >= scores[:, 0].sum() * (1 - 1e-9)
        prev_u, prev_l = phi_u, phi_l
    return len(history)


def assert_wf_chain(reduced: ReducedInstance, params: WfParams, history: list) -> None:
    """Assert the multiplicative chain of ``mmwum-wf`` over every step of ``history``.

    Each step multiplies trace exp(gamma A) by at most 1 + delta_U and
    trace exp(-gamma A) by at most 1 - delta_L, up to 1e-8 relative; both
    are ``psi_upper`` and ``psi_lower`` with the barrier at 0.
    """
    gamma = params.gamma
    a = np.zeros((reduced.rank, reduced.rank))
    before = psi_upper(a, 0.0, gamma), psi_lower(a, 0.0, gamma)
    for *_, a in replay(reduced, history):
        after = psi_upper(a, 0.0, gamma), psi_lower(a, 0.0, gamma)
        assert after[0] <= (1.0 + params.delta_U) * before[0] * (1 + 1e-8)
        assert after[1] <= (1.0 - params.delta_L) * before[1] * (1 + 1e-8)
        before = after

"""Width-free matrix multiplicative weights sparsifier, O(n log n / eps^2).

Each round forms the two exponential weight densities X_U, X_L from the
running sum A, asks the oracle for one (index, step) pair whose update
multiplies trace(exp(gamma*A)) by at most (1 + delta_U) and
trace(exp(-gamma*A)) by at most (1 - delta_L), and accumulates.  After T
rounds the scaled average lands inside [1 - eps, 1 + eps].  Both
densities are Q diag(exp(+-gamma w) / sum) Q^T for A = Q diag(w) Q^T, so
the schedule ``WfParams`` is the solver's potential in the shared loop
``scan.drive``; its weights are certified with ``certificate_for``.

The same potentials can be phrased as shifted-barrier functions
Psi^u = trace exp(-uI + gamma*A) and Psi_ell = trace exp(ell*I - gamma*A)
whose non-increase under moving barriers is equivalent to the
multiplicative bounds; ``check_potential_equivalence`` evaluates both
formulations and insists they agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scan
from .errors import EquivalenceBroken, ExpOverflow, OracleInfeasible
from .linalg import (
    EXP_OVERFLOW_LIMIT,
    ReducedInstance,
    SparsifierResult,
    certificate_for,
    eigh,
    ln_sum_exp,
    symmetrize,
)


@dataclass(frozen=True)
class WfParams:
    """Update schedule derived from (eps, n); satisfies 1/delta_L - n = 1/delta_U.

    It is also the ``scan`` potential of ``mmwum-wf``: ``coefficients``
    gives the densities X_U, X_L and ``pick`` is ``_wf_pick``.
    """

    name = "mmwum-wf"

    eps: float
    n: int
    eta: float
    delta_U: float
    delta_L: float
    T: int
    gamma: float

    @staticmethod
    def from_epsilon(eps: float, n: int, gamma: float | None = None) -> "WfParams":
        scan.check_schedule(eps, n)
        eta = eps / 2.0
        delta_U = eta / n
        delta_L = eta / ((1.0 + eta) * n)
        t_count = max(1, math.ceil(n * math.log(n) / eta**2))
        if gamma is None:
            gamma = eta / n
        return WfParams(
            eps=eps, n=n, eta=eta, delta_U=delta_U, delta_L=delta_L,
            T=t_count, gamma=gamma,
        )

    def __post_init__(self):
        lhs = 1.0 / self.delta_L - self.n
        rhs = 1.0 / self.delta_U
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
            raise ValueError(f"delta balance violated: {lhs} != {rhs}")

    def coefficients(self, w: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        """X_U and X_L as exp(+-gamma w) / sum, from the spectrum w of A."""
        gamma = self.gamma
        if gamma * float(w[-1]) > EXP_OVERFLOW_LIMIT:
            raise ExpOverflow("gamma * lambda_max exceeds the overflow guard")
        exp_plus = np.exp(gamma * w)
        exp_minus = np.exp(-gamma * w)
        return exp_plus / exp_plus.sum(), exp_minus / exp_minus.sum()

    def pick(self, scores: np.ndarray, coeffs: np.ndarray, reduced) -> tuple[int, float]:
        return _wf_pick(scores[:, 0], scores[:, 1], reduced, self)


def _wf_pick(
    scores_u: np.ndarray, scores_l: np.ndarray, reduced: ReducedInstance, params: WfParams
) -> tuple[int, float]:
    """Width-free oracle from the scores <X_U, C_j> and <X_L, C_j>.

    Selects the index whose slack <X_L, C_j>/delta_L - trace(C_j) -
    <X_U, C_j>/delta_U is largest (nonnegative slack always exists because
    the slacks sum to 1/delta_L - n - 1/delta_U >= 0); alpha makes the upper
    multiplicative bound hold with equality, which forces the lower bound.
    """
    traces = reduced.traces
    candidates = reduced.has_trace
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


def _trace_exp_eigs(w: np.ndarray, shift: float = 0.0) -> float:
    """sum exp(w_i - shift), guarding float64 overflow."""
    top = float(np.max(w)) - shift
    if top > EXP_OVERFLOW_LIMIT:
        raise ExpOverflow(f"exponent {top:.2f} exceeds {EXP_OVERFLOW_LIMIT}")
    return float(np.sum(np.exp(w - shift)))


def psi_upper(a: np.ndarray, u: float, gamma: float) -> float:
    """trace exp(-uI + gamma*A)."""
    return _trace_exp_eigs(gamma * eigh(a).eigenvalues, shift=u)


def psi_lower(a: np.ndarray, ell: float, gamma: float) -> float:
    """trace exp(ell*I - gamma*A)."""
    return _trace_exp_eigs(-gamma * eigh(a).eigenvalues, shift=-ell)


def check_potential_equivalence(
    a: np.ndarray,
    x: np.ndarray,
    alpha: float,
    t: int,
    params: WfParams,
) -> bool:
    """Verify that the two potential formulations agree on one step.

    The multiplicative conditions bound trace exp(+-gamma*A) by factors
    (1 + delta_U) and (1 - delta_L); the shifted-barrier conditions demand
    the moving-barrier exponential potentials not increase.  The
    proposition that these coincide is checked numerically: returns True
    when both formulations deliver the same verdict on the step
    A -> A + alpha*X (whether that shared verdict is accept or reject),
    and raises EquivalenceBroken on disagreement beyond 1e-8 relative
    slack.  Margins are handled in log space so arbitrarily large
    steps remain comparable.
    """
    rel_tol = 1e-8
    gamma = params.gamma
    a_next = symmetrize(a + alpha * x)
    w_here = eigh(a).eigenvalues
    w_next = eigh(a_next).eigenvalues

    big_u = math.log1p(params.delta_U)
    big_l = -math.log1p(-params.delta_L)

    # log-space margins; >= 0 means the condition holds.  The shifted
    # route folds the moving barrier into each exponent before summing,
    # so the two formulations take distinct numerical paths.
    m_mult_u = big_u + ln_sum_exp(gamma * w_here) - ln_sum_exp(gamma * w_next)
    m_mult_l = -big_l + ln_sum_exp(-gamma * w_here) - ln_sum_exp(-gamma * w_next)
    m_shift_u = ln_sum_exp(gamma * w_here - t * big_u) - ln_sum_exp(
        gamma * w_next - (t + 1) * big_u
    )
    m_shift_l = ln_sum_exp(t * big_l - gamma * w_here) - ln_sum_exp(
        (t + 1) * big_l - gamma * w_next
    )

    mult = m_mult_u >= -rel_tol and m_mult_l >= -rel_tol
    shifted = m_shift_u >= -rel_tol and m_shift_l >= -rel_tol
    if mult == shifted:
        return True
    if abs(m_mult_u - m_shift_u) <= rel_tol and abs(m_mult_l - m_shift_l) <= rel_tol:
        return True
    raise EquivalenceBroken(
        f"formulations disagree at t={t}: multiplicative={mult} "
        f"(margins {m_mult_u:.3e}, {m_mult_l:.3e}), shifted={shifted} "
        f"(margins {m_shift_u:.3e}, {m_shift_l:.3e})"
    )


def wf_sparsify(
    reduced: ReducedInstance,
    eps: float,
    gamma: float | None = None,
    max_seconds: float | None = None,
) -> SparsifierResult:
    """Run the width-free update for T rounds and return the scaled average.

    The final weights are y * (r * gamma / (eta * T)); with the default
    gamma = eta/r this is y/T.  Certificate eigenvalues land inside
    [1 - eps, 1 + eps] and support is at most T.
    """
    params = WfParams.from_epsilon(eps, reduced.rank, gamma=gamma)
    y, picks = scan.drive(reduced, params, max_seconds)
    y_bar = y * (reduced.rank * params.gamma / (params.eta * params.T))
    return SparsifierResult(y_bar, certificate_for(reduced, y_bar), t_used=len(picks), picks=picks)

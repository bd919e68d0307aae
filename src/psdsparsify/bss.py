"""Deterministic barrier-potential sparsifier with O(n/eps^2) support.

The algorithm grows A = sum(y_i C_i) one rank-restricted step at a time
while two moving barriers u_t = u_0 + t*delta_U and ell_t = ell_0 +
t*delta_L trap the spectrum.  Trace-inverse potentials measure how close
eigenvalues crowd each barrier; the shift bounds U_A(X) and L_A(X) give
the closed-form step-size window that keeps both potentials from rising.

U_A(X) and L_A(X) are trace inner products of X with Q diag(c_U) Q^T and
Q diag(c_L) Q^T for A = Q diag(w) Q^T, where ``_upper_coefficients`` and
``_lower_coefficients`` map w to c_U and c_L.  So the schedule
``BssParams`` is the solver's potential in the shared loop ``scan.drive``:
it picks the widest gap L_A(C_j) - U_A(C_j).  The weights are certified
with ``certificate_for`` and divided by their lambda_min with
``rescaled``, as in ``sparsify_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scan
from .errors import (
    BarrierViolated,
    PotentialTooLarge,
    StepNotFound,
)
from .linalg import ReducedInstance, SparsifierResult, certificate_for, eigh, rescaled


@dataclass(frozen=True)
class BssParams:
    """Barrier schedule derived from (eps, n), and the ``scan`` potential of ``bss``.

    The choices keep 1/delta_U + eps_U = 1/delta_L - eps_L, the balance
    that guarantees an admissible step exists at every iteration.
    ``coefficients`` gives c_U and c_L and ``pick`` is ``_bss_pick``.
    """

    name = "bss"

    eps: float
    n: int
    delta_L: float
    eps_L: float
    ell_0: float
    delta_U: float
    eps_U: float
    u_0: float
    T: int

    @staticmethod
    def from_epsilon(eps: float, n: int) -> "BssParams":
        scan.check_schedule(eps, n)
        delta_L = 1.0
        eps_L = eps / 2.0
        ell_0 = -n / eps_L
        delta_U = (2.0 + eps) / (2.0 - eps)
        eps_U = eps / (2.0 * delta_U)
        u_0 = n / eps_U
        t_count = math.ceil(4.0 * n / eps**2)
        return BssParams(
            eps=eps,
            n=n,
            delta_L=delta_L,
            eps_L=eps_L,
            ell_0=ell_0,
            delta_U=delta_U,
            eps_U=eps_U,
            u_0=u_0,
            T=t_count,
        )

    def __post_init__(self):
        lhs = 1.0 / self.delta_U + self.eps_U
        rhs = 1.0 / self.delta_L - self.eps_L
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
            raise ValueError(f"barrier balance violated: {lhs} != {rhs}")
        if self.T < 1:
            raise ValueError("iteration count must be at least 1")

    def upper_barrier(self, t: int) -> float:
        return self.u_0 + t * self.delta_U

    def lower_barrier(self, t: int) -> float:
        return self.ell_0 + t * self.delta_L

    def coefficients(self, w: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        """c_U and c_L at the barriers of step t, from the spectrum w of A."""
        return (
            _upper_coefficients(w, self.upper_barrier(t), self.delta_U),
            _lower_coefficients(w, self.lower_barrier(t), self.delta_L),
        )

    def pick(self, scores: np.ndarray, coeffs: np.ndarray, reduced) -> tuple[int, float]:
        return _bss_pick(scores[:, 0], scores[:, 1], reduced)


def phi_upper(a: np.ndarray, u: float) -> float:
    """Upper barrier potential trace((uI - A)^-1) = sum 1/(u - lambda_i)."""
    w = eigh(a).eigenvalues
    if u <= w[-1]:
        raise BarrierViolated(f"u = {u} is not above lambda_max = {w[-1]}")
    return float(np.sum(1.0 / (u - w)))


def phi_lower(a: np.ndarray, ell: float) -> float:
    """Lower barrier potential trace((A - ell*I)^-1) = sum 1/(lambda_i - ell)."""
    w = eigh(a).eigenvalues
    if ell >= w[0]:
        raise BarrierViolated(f"ell = {ell} is not below lambda_min = {w[0]}")
    return float(np.sum(1.0 / (w - ell)))


def _upper_coefficients(w: np.ndarray, u: float, delta_U: float) -> np.ndarray:
    """Coefficients c with U_A(X) = <Q diag(c) Q^T, X> for the barrier shift
    u -> u + delta_U, from the spectrum w of A (eigenvectors Q)."""
    if u <= w[-1]:
        raise BarrierViolated(f"u = {u} is not above lambda_max = {w[-1]}")
    inv = 1.0 / (u + delta_U - w)
    drop = float(np.sum(1.0 / (u - w)) - np.sum(inv))
    return inv**2 / drop + inv


def _lower_coefficients(w: np.ndarray, ell: float, delta_L: float) -> np.ndarray:
    """Coefficients c with L_A(X) = <Q diag(c) Q^T, X> for the barrier shift
    ell -> ell + delta_L, from the spectrum w of A (eigenvectors Q)."""
    if ell >= w[0]:
        raise BarrierViolated(f"ell = {ell} is not below lambda_min = {w[0]}")
    phi_here = float(np.sum(1.0 / (w - ell)))
    if phi_here > 1.0 / delta_L:
        raise PotentialTooLarge(
            f"phi_lower = {phi_here} exceeds 1/delta_L = {1.0 / delta_L}"
        )
    inv = 1.0 / (w - (ell + delta_L))
    rise = float(np.sum(inv) - phi_here)
    return inv**2 / rise - inv


def _bss_pick(
    scores_u: np.ndarray, scores_l: np.ndarray, reduced: ReducedInstance
) -> tuple[int, float]:
    """Widest feasible gap L_A(C_j) - U_A(C_j), lowest index on ties; 1/alpha = (U + L)/2."""
    nonzero = reduced.has_trace
    feasible = nonzero & (scores_u > 0.0) & (scores_l >= scores_u)
    if not feasible.any():
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


def bss_sparsify(
    reduced: ReducedInstance,
    eps: float,
    history: list | None = None,
    max_seconds: float | None = None,
) -> SparsifierResult:
    """Run the barrier-potential sparsifier to completion.

    Returns weights scaled by 1/lambda_min(sum y_i C_i), so the certificate
    has lambda_min = 1 and lambda_max <= ((2+eps)/(2-eps))^2 up to rounding.
    Support is at most T = ceil(4r/eps^2).
    A ``history`` list gets the pair (j, alpha) of every step.
    """
    y = scan.drive(reduced, BssParams.from_epsilon(eps, reduced.rank), max_seconds, history)
    return rescaled(SparsifierResult(weights=y, certificate=certificate_for(reduced, y)), "bss")

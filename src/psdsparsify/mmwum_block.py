"""Two-block matrix multiplicative weights sparsifier, O(n log n / eps^3).

Block 1 tracks sum(y_i C_i) - I from below and block 2 tracks its
negation, each through an exponential weight matrix
W_k = exp(-beta/(ell+rho) * S_k) over its accumulated loss S_k.  The
oracle answers with a single index chosen by two Markov-style conditions
and a step alpha = 1/p_j, whose width alpha*trace(C_j) never exceeds
rho = (1+eta) n / eta.

Block 1's loss at a step is alpha C_j - I + ell I and block 2's is its
exact negation, so S_2 = -S_1.  The identity terms shift every
eigenvalue of S_1 alike, which scales W_1 and W_2 by positive constants
that neither Markov condition nor the width sees; the loop therefore
keeps only S = sum alpha C_j.  For S = Q diag(s) Q^T, W_1 = Q diag(e^w) Q^T
and W_2 = Q diag(e^-w) Q^T with w = -beta/(ell+rho) s, so the schedule
``BlockParams`` is the solver's potential in the shared loop ``scan.drive``.

``oracle_width_fixture`` builds the rank-one
instance showing that no oracle can do better than rho = Omega(n/eta):
with X1 = Diag(1, eta^3, 3 eta) (x) I_k and X2 = X1^-1, the rotated pair
vectors are infeasible and the bare third coordinate costs width at least
(1-eta) n/(9 eta), for every eta in (0, 0.2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scan
from .errors import ExpOverflow, OracleInfeasible
from .linalg import (
    EXP_OVERFLOW_LIMIT,
    PsdCollection,
    ReducedInstance,
    SparsifierResult,
    certificate_for,
)


@dataclass(frozen=True)
class BlockParams:
    """Schedule derived from (eps, n) keeping the error sum below eps.

    It is also the ``scan`` potential of ``mmwum-block``: ``coefficients``
    gives the weights W_1, W_2 and ``pick`` is ``_block_pick``.
    """

    name = "mmwum-block"

    eps: float
    n: int
    beta: float
    eta: float
    ell: float
    rho: float
    T: int

    @staticmethod
    def from_epsilon(eps: float, n: int) -> "BlockParams":
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if n < 1:
            raise ValueError("n must be positive")
        beta = eps / 4.0
        eta = eps / 8.0
        ell = 1.0
        rho = (1.0 + eta) * n / eta
        t_count = max(1, math.ceil(2.0 * (rho + ell) * math.log(n) / (beta * eps)))
        return BlockParams(eps=eps, n=n, beta=beta, eta=eta, ell=ell, rho=rho, T=t_count)

    def error_bound(self) -> float:
        """beta*ell + (rho+ell) ln n / (T beta) + (1+beta) eta; at most eps."""
        return (
            self.beta * self.ell
            + (self.rho + self.ell) * math.log(self.n) / (self.T * self.beta)
            + (1.0 + self.beta) * self.eta
        )

    def __post_init__(self):
        if self.error_bound() > self.eps:
            raise ValueError(
                f"error bound {self.error_bound()} exceeds eps = {self.eps}"
            )

    def coefficients(self, s: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        """W_1 and W_2 as exp(-+beta/(ell+rho) s), from the spectrum s of S."""
        exponents = -self.beta / (self.ell + self.rho) * s
        # the scale is negative, so the exponents descend along the ascending s
        top = max(float(exponents[0]), -float(exponents[-1]))
        if top > EXP_OVERFLOW_LIMIT:
            raise ExpOverflow(f"largest exponent {top:.2f} exceeds {EXP_OVERFLOW_LIMIT}")
        return np.exp(exponents), np.exp(-exponents)

    def pick(self, scores: np.ndarray, coeffs: np.ndarray, reduced) -> tuple[int, float]:
        tr_w1, tr_w2 = coeffs.sum(axis=0)
        return _block_pick(scores[:, 0], scores[:, 1], tr_w1, tr_w2, reduced, self.eta)


def _block_pick(
    scores_1: np.ndarray,
    scores_2: np.ndarray,
    tr_x1: float,
    tr_x2: float,
    reduced: ReducedInstance,
    eta: float,
) -> tuple[int, float]:
    """Two-block oracle from the scores <X1, C_j>, <X2, C_j> and both traces.

    With p_i = <X1, C_i>/trace(X1), a feasible j must satisfy both Markov
    conditions <X2, C_j>/p_j <= (1+eta) trace(X2) and trace(C_j)/p_j <=
    (1+eta) n / eta.  Among the feasible, the smallest width user
    trace(C_j)/p_j wins, lowest index on ties; alpha = 1/p_j.  Divides by
    p_j = 0 for members with no weight under X1: silence divide and invalid.
    """
    traces = reduced.traces
    p = scores_1 / tr_x1
    cond_x2 = scores_2 / p
    widths = traces / p
    rho = (1.0 + eta) * reduced.rank / eta
    feasible = reduced.has_trace & (p > 0.0) & (cond_x2 <= (1.0 + eta) * tr_x2) & (widths <= rho)
    widths[~feasible] = np.inf
    # a feasible width is at most rho, so the smallest is feasible iff any is
    j = int(widths.argmin())
    if not feasible[j]:
        raise OracleInfeasible("no index satisfies both Markov conditions")
    return j, float(1.0 / p[j])


def block_sparsify(
    reduced: ReducedInstance,
    eps: float,
    history: list | None = None,
    max_seconds: float | None = None,
) -> SparsifierResult:
    """Run the two-block update for T rounds and average the oracle answers.

    Certificate eigenvalues land inside [1 - eps, 1 + eps]; support is at
    most T = ceil(2 (rho + ell) ln n / (beta eps)).
    A ``history`` list gets the pair (j, alpha) of every step.
    """
    params = BlockParams.from_epsilon(eps, reduced.rank)
    with np.errstate(divide="ignore", invalid="ignore"):
        y_sum = scan.drive(reduced, params, max_seconds, history)
    y_bar = y_sum / params.T
    return SparsifierResult(weights=y_bar, certificate=certificate_for(reduced, y_bar))


@dataclass(frozen=True)
class WidthFixture:
    """Hard instance for the oracle width: only the k 'tail' vectors are
    feasible and every feasible answer spends width at least lower_bound."""

    collection: PsdCollection
    x1: np.ndarray
    x2: np.ndarray
    lower_bound: float
    k: int

    def matrix_type(self, index: int) -> int:
        """1, 2 or 3: position of the block the index-th vector lives in."""
        return index // self.k + 1


def oracle_width_fixture(k: int, eta: float) -> WidthFixture:
    """Rank-one instance of dimension n = 3k forcing width >= (1-eta) n/(9 eta).

    The densities are X1 = Diag(1, a, z) (x) I_k and X2 = X1^-1 with
    a = eta^3 and z = 3 eta; X2 = X1^-1 keeps the two blocks' losses
    negatives of each other.  The 3k unit vectors split into two rotated
    pairs (e1 -+ e2)/sqrt(2) plus the bare third coordinate e3, and sum to
    I_3k.  A pair vector admits a step alpha with alpha <X1, C> >=
    (1-eta) tr X1 and alpha <X2, C> <= (1+eta) tr X2 iff

        (1-eta) (1 + a + z) <= (1+eta) (1 + a + a/z),

    which never holds on the validated range eta in (0, 0.2]: left minus
    right is eta (1 - 3 eta) - 2 eta a - (1+eta) eta^2/3 >= 0.3 eta > 0
    there.  Only the third type admits a feasible step, and its width
    trace(C)/alpha >= (1-eta) tr X1 / z >= (1-eta) n/(9 eta) depends on z
    alone.  Matrices are ordered type-major: indices [0, k) are type 1,
    [k, 2k) type 2, [2k, 3k) type 3.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not 0.0 < eta <= 0.2:
        raise ValueError("eta must lie in (0, 0.2] for the separation to hold")
    diagonal = np.array([1.0, eta**3, 3.0 * eta])
    eye_k = np.eye(k)
    x1 = np.kron(np.diag(diagonal), eye_k)
    x2 = np.kron(np.diag(1.0 / diagonal), eye_k)
    s = 1.0 / math.sqrt(2.0)
    profiles = [
        np.array([s, -s, 0.0]),
        np.array([s, s, 0.0]),
        np.array([0.0, 0.0, 1.0]),
    ]
    mats = []
    for profile in profiles:
        for jj in range(k):
            v = np.kron(profile, eye_k[jj])
            mats.append(np.outer(v, v))
    coll = PsdCollection.from_matrices(mats)
    n = 3 * k
    return WidthFixture(
        collection=coll,
        x1=x1,
        x2=x2,
        lower_bound=(1.0 - eta) * n / (9.0 * eta),
        k=k,
    )

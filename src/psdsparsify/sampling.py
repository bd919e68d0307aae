"""Random-sampling baseline and its greedy derandomization.

``aw_sample`` draws T i.i.d. indices with probability p_j = tr(C_j) / r
and succeeds with probability > 1/2; ``pe_sparsify`` replaces the coin
flips by a greedy walk that never raises the sum phi + psi of two
pessimistic estimators, one per spectral tail event, turning the same
quantized weights into a deterministic guarantee (Wigderson and Xiao,
Theory of Computing 4, 2008; Tropp, arXiv 1004.4389).

The walk picks T unit-trace members X_j = C_j / tr(C_j), whose p-mean is
mu I with mu = 1/r; P is the sum of the picks so far.  After i picks, with
the tail exponents (t, t') of ``pe_exponents``,

    phi_i = e^{t (1-eps) mu T} (1 - (1 - e^{-t}) mu)^{T-i} tr e^{-t P},
    psi_i = e^{-t' (1+eps) mu T} (1 + (e^{t'} - 1) mu)^{T-i} tr e^{t' P}.

For 0 <= X <= I and real s, e^{sX} <= I + (e^s - 1) X, with equality when
X is rank one (a graph edge), so by Golden-Thompson
tr e^{s (P + X_j)} <= tr e^{sP} + (e^s - 1) <X_j, e^{sP}>: picking X_j
takes each estimator to at most a value linear in X_j, and the p-mean of
those values is phi_i + psi_i itself.  So the member with the smallest
linear value keeps phi + psi from rising.  Only the part that depends on
j is scored, <X_j, Q diag(c) Q^T> for the two ``PeParams.coefficients``
columns c from P = Q diag(w) Q^T: ``pe`` is the fourth ``scan`` potential,
one ``eigh`` of P and one scoring product per step.  At the budget T of
``pe_iteration_count``, phi_0 + psi_0 < 1 holds by construction, and
phi_T + psi_T < 1 puts the spectrum of P inside ((1-eps) mu T,
(1+eps) mu T), so sum_j y_j C_j = (r/T) P lies inside [1-eps, 1+eps].

Tie rule: values within ``PE_TIE_RTOL`` of the smallest, relative to the
size of its two terms, tie, and the lowest index among them wins.  At
P = 0 every candidate ties in exact arithmetic (the scores differ only by
rounding), so the first step picks the first member with positive trace.

RNG contract: PCG64 via ``numpy.random.default_rng(seed)``; indices come
from inverse-CDF lookups against the cumulative probability vector, so
runs are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scan
from .errors import RankTooSmall
from .linalg import ReducedInstance, SparsifierResult, certificate_for

# linear values closer than this to the smallest, relative to the size of
# its terms, tie with it
PE_TIE_RTOL = 1e-12


def aw_iteration_count(rank: int, eps: float) -> int:
    """Smallest integer above (2 ln 2)(ln r + 2 ln 2) / (eps^2 mu), mu = 1/r."""
    raw = 2.0 * math.log(2.0) * (math.log(rank) + 2.0 * math.log(2.0)) * rank / eps**2
    return math.floor(raw) + 1


def _bernoulli_kl(a: float, mu: float) -> float:
    """D(a || mu) between Bernoulli(a) and Bernoulli(mu)."""
    return a * math.log(a / mu) + (1.0 - a) * math.log((1.0 - a) / (1.0 - mu))


def pe_iteration_count(rank: int, eps: float) -> int:
    """Smallest integer above ln(2r) / min(D((1-eps) mu || mu), D((1+eps) mu || mu)).

    mu = 1/r.  At the optimal exponents each estimator starts at
    r e^{-T D}, so phi_0 + psi_0 < 1 at this T.
    """
    mu = 1.0 / rank
    rate = min(_bernoulli_kl((1.0 - eps) * mu, mu), _bernoulli_kl((1.0 + eps) * mu, mu))
    return math.floor(math.log(2.0 * rank) / rate) + 1


def pe_exponents(mu: float, eps: float) -> tuple[float, float]:
    """Tail exponents (t, t') for the lower and upper spectral events."""
    t_minus = math.log((1.0 - (1.0 - eps) * mu) / ((1.0 - mu) * (1.0 - eps)))
    t_plus = math.log(((1.0 + eps) * (1.0 - mu)) / (1.0 - (1.0 + eps) * mu))
    return t_minus, t_plus


def trace_probabilities(reduced: ReducedInstance, eps: float) -> np.ndarray:
    """p_i = tr(C_i) / r, which both methods draw from.  eps must lie in (0, 1/2]
    (the budgets stay finite at 1/2) and the p_i must sum to 1 within 1e-10."""
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    p = reduced.traces / reduced.rank
    total = float(p.sum())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"trace probabilities sum to {total}, expected 1")
    return p


def aw_sample(reduced: ReducedInstance, eps: float, seed=0) -> SparsifierResult:
    """Draw T indices i.i.d. by trace weight; y_j = count_j r / (T tr(C_j)).

    Success (all certificate eigenvalues inside [1-eps, 1+eps]) holds with
    probability above 1/2; the caller checks the certificate rather than
    trusting the draw.  ``seed`` is anything ``default_rng`` takes.
    """
    probabilities = trace_probabilities(reduced, eps)
    t = aw_iteration_count(reduced.rank, eps)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(probabilities)
    draws = rng.random(t)
    idx = np.searchsorted(cum, draws, side="right")
    # a draw landing past cum[-1] (rounding shortfall) must clamp to the
    # last index that actually has probability mass
    last = int(np.flatnonzero(probabilities > 0.0)[-1])
    idx = np.minimum(idx, last)
    counts = np.bincount(idx, minlength=len(reduced))
    y = np.zeros(len(reduced))
    picked = counts > 0
    y[picked] = counts[picked] * reduced.rank / (t * reduced.traces[picked])
    return SparsifierResult(weights=y, certificate=certificate_for(reduced, y), t_used=t)


@dataclass(frozen=True)
class PeParams:
    """Estimator schedule derived from (eps, n), and the ``scan`` potential of ``pe``.

    ``mu`` = 1/n, ``T`` is ``pe_iteration_count`` and ``t_lower``, ``t_upper``
    are the tail exponents (t, t') of ``pe_exponents``.  ``coefficients``
    gives the lower and upper columns and ``pick`` is ``_pe_pick``.
    """

    name = "pe"

    eps: float
    n: int
    mu: float
    T: int
    t_lower: float
    t_upper: float

    @staticmethod
    def from_epsilon(eps: float, n: int) -> "PeParams":
        if n < 2:
            raise RankTooSmall("derandomization needs rank at least 2")
        mu = 1.0 / n
        t_lower, t_upper = pe_exponents(mu, eps)
        return PeParams(
            eps=eps, n=n, mu=mu, T=pe_iteration_count(n, eps), t_lower=t_lower, t_upper=t_upper
        )

    def coefficients(self, w: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        """The pick-dependent parts of phi_{t+1} and psi_{t+1}, from the spectrum w of P.

        With (s, s') = (t_lower, t_upper) they are -(1 - e^{-s}) L e^{-s w} and
        (e^{s'} - 1) U e^{s' w}, whose prefactors L and U, for the T - t - 1
        steps left, are taken in log space.
        """
        left, mu, t_lo, t_up = self.T - t - 1, self.mu, self.t_lower, self.t_upper
        drop, rise = -math.expm1(-t_lo), math.expm1(t_up)
        ln_lower = t_lo * (1.0 - self.eps) * mu * self.T + left * math.log1p(-drop * mu)
        ln_upper = -t_up * (1.0 + self.eps) * mu * self.T + left * math.log1p(rise * mu)
        return -drop * np.exp(ln_lower - t_lo * w), rise * np.exp(ln_upper + t_up * w)

    def pick(self, scores: np.ndarray, coeffs: np.ndarray, reduced) -> tuple[int, float]:
        return _pe_pick(scores, reduced)


def _pe_pick(scores: np.ndarray, reduced: ReducedInstance) -> tuple[int, float]:
    """The member with the smallest linear value per unit trace, under the tie
    rule; alpha = 1/tr(C_j) adds X_j to P.  A member with no trace divides
    by zero, which ``scan.drive`` silences."""
    traces = reduced.traces
    values = np.where(reduced.has_trace, scores.sum(axis=1) / traces, np.inf)
    best = int(np.argmin(values))
    # the lower column is negative and the upper positive
    size = (scores[best, 1] - scores[best, 0]) / traces[best]
    j = int(np.argmax(values <= values[best] + PE_TIE_RTOL * size))
    return j, 1.0 / traces[j]


def pe_sparsify(
    reduced: ReducedInstance,
    eps: float,
    *,
    max_seconds: float | None = None,
) -> SparsifierResult:
    """Deterministic sparsifier via T greedy pessimistic-estimator steps.

    The weights are (r/T) times the driver's, the quantization of
    ``aw_sample``; the certificate eigenvalues lie inside [1-eps, 1+eps]
    with no randomness involved; every pick is (j, 1/tr(C_j)).  Raises
    TimeBudgetExceeded when ``max_seconds`` run out before the last step.
    """
    trace_probabilities(reduced, eps)  # checks eps and that the traces sum to r
    params = PeParams.from_epsilon(eps, reduced.rank)
    y, picks = scan.drive(reduced, params, max_seconds)
    y = y * (reduced.rank / params.T)
    return SparsifierResult(y, certificate_for(reduced, y), t_used=len(picks), picks=picks)

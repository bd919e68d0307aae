"""Random-sampling baseline and its greedy derandomization.

``aw_sample`` draws T i.i.d. indices with probability proportional to
trace(C_i) and succeeds with probability > 1/2; ``pe_sparsify`` replaces
the coin flips by a greedy walk that always moves the sum of two
pessimistic estimators (one per spectral tail event) downward, turning
the same quantized weights into a deterministic guarantee.  Both tail
exponents are multiples of one matrix, the sum P of the unit-trace picks
so far, so a step scores every candidate j from the eigenvalues of
P + X_j alone: one eigenvalue-only decomposition per step serves both
tails.  Both methods draw from ``trace_probabilities``.  ``pe_params``
builds the whole state at one budget T; a retry at a larger budget builds
it again.  The walk takes the lowest index among values that are equal bit
for bit; among candidates that tie only in exact arithmetic (as on
edge-transitive graphs), rounding decides.

RNG contract: PCG64 via ``numpy.random.default_rng(seed)``; indices come
from inverse-CDF lookups against the cumulative probability vector, so
runs are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import RankTooSmall, TimeBudgetExceeded, TNotLargeEnough
from .linalg import (
    ReducedInstance,
    SparsifierResult,
    certificate_for,
    eigh,
    eigvalsh,
    ln_sum_exp,
    symmetrize,
)


def aw_iteration_count(rank: int, eps: float) -> int:
    """Smallest integer above (2 ln 2)(ln r + 2 ln 2) / (eps^2 mu), mu = 1/r."""
    raw = 2.0 * math.log(2.0) * (math.log(rank) + 2.0 * math.log(2.0)) * rank / eps**2
    return math.floor(raw) + 1


def pe_iteration_count(rank: int, eps: float) -> int:
    """Smallest integer above (2 ln 2) r ln(2r) / eps^2."""
    raw = 2.0 * math.log(2.0) * rank * math.log(2.0 * rank) / eps**2
    return math.floor(raw) + 1


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


def _quantized_weights(counts: np.ndarray, reduced: ReducedInstance, t_total: int) -> np.ndarray:
    """y_j = count_j * r / (T * trace(C_j)); zero where nothing was picked."""
    traces = reduced.traces
    y = np.zeros(len(reduced))
    picked = counts > 0
    y[picked] = counts[picked] * reduced.rank / (t_total * traces[picked])
    return y


def aw_sample(reduced: ReducedInstance, eps: float, seed: int = 0) -> SparsifierResult:
    """Draw T indices i.i.d. by trace weight and return the quantized result.

    Success (all certificate eigenvalues inside [1-eps, 1+eps]) holds with
    probability above 1/2; the caller checks the certificate rather than
    trusting the draw.
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
    y = _quantized_weights(np.bincount(idx, minlength=len(reduced)), reduced, t)
    return SparsifierResult(weights=y, certificate=certificate_for(reduced, y), t_used=t)


@dataclass
class PeState:
    """Greedy derandomization state at budget ``t_total``.

    ``probabilities`` are the ``trace_probabilities`` at ``eps``.  ``live``
    lists the candidates with positive probability and ``units`` holds
    their unit-trace matrices X_j = G_j^T G_j / tr(C_j), built from the
    factor rows, as one (len(live), r, r) stack; their mean is E[X] = mu I
    with mu = 1/r.  ``t_minus`` scales the lower-tail exponent exp(-t X)
    and ``t_plus`` the upper-tail exponent exp(+t' X); the log norms are
    those of the expected one-step factors E[exp(-t X)] and E[exp(t' X)].
    ``picked_sum`` is P, the sum of the unit-trace matrices picked so far;
    the two exponent sums are -t P and +t' P, so both tails take their
    spectra from the eigenvalues of P.  The estimator values are assembled
    in log space so the norm powers cannot underflow.
    """

    probabilities: np.ndarray
    eps: float
    mu: float
    t_minus: float
    t_plus: float
    log_norm_minus: float
    log_norm_plus: float
    live: np.ndarray
    units: np.ndarray
    t_total: int
    picked_sum: np.ndarray
    picks: list = field(default_factory=list)

    @property
    def t(self) -> int:
        return len(self.picks)

    def _estimate(self, w_lower: np.ndarray, w_upper: np.ndarray, i: int) -> np.ndarray:
        """phi + psi after i picks, from the spectra of the two exponent sums.

        Takes one spectrum per argument or a (k, r) stack of them, and
        returns one value per spectrum.
        """
        t_total = self.t_total
        c_phi = self.t_minus * t_total * (1.0 - self.eps) * self.mu
        c_psi = -self.t_plus * t_total * (1.0 + self.eps) * self.mu
        ln_phi = c_phi + ln_sum_exp(w_lower) + (t_total - i) * self.log_norm_minus
        ln_psi = c_psi + ln_sum_exp(w_upper) + (t_total - i) * self.log_norm_plus
        return np.exp(ln_phi) + np.exp(ln_psi)

    def current_value(self) -> float:
        w = eigvalsh(self.picked_sum)
        return float(self._estimate(-self.t_minus * w, self.t_plus * w, self.t))


def pe_params(reduced: ReducedInstance, eps: float, t_total: int | None = None) -> PeState:
    """Build the pessimistic-estimator state and check phi_0 + psi_0 < 1.

    One stacked ``eigh`` of the unit-trace stack gives each unit
    X_j = Q_j diag(w_j) Q_j^T, so each mean E[exp(s X)] =
    sum_j p_j Q_j diag(exp(s w_j)) Q_j^T is one product over the units'
    eigenvectors placed side by side; the factor rows need not be
    orthogonal.  ``t_total`` defaults to the textbook budget.  When the
    budget fails the check, the raised TNotLargeEnough carries a
    ``suggested_t`` computed from the measured per-step decay rates of the
    two estimators, which does satisfy it.
    """
    probabilities = trace_probabilities(reduced, eps)
    r = reduced.rank
    mu = 1.0 / r
    if mu >= 1.0:
        raise RankTooSmall("derandomization needs rank at least 2")
    t_minus, t_plus = pe_exponents(mu, eps)

    live = np.flatnonzero(probabilities > 0.0)
    units = np.empty((len(live), r, r))
    for k, j in enumerate(live):
        np.divide(reduced.member(j), reduced.traces[j], out=units[k])
    spec = eigh(units)
    w = spec.eigenvalues
    side_by_side = spec.eigenvectors.transpose(1, 0, 2).reshape(r, -1)
    prob = probabilities[live, None]

    def log_norm(s: float) -> float:
        mean = (side_by_side * (prob * np.exp(s * w)).ravel()) @ side_by_side.T
        return math.log(float(eigvalsh(symmetrize(mean))[-1]))

    state = PeState(
        probabilities=probabilities,
        eps=eps,
        mu=mu,
        t_minus=t_minus,
        t_plus=t_plus,
        log_norm_minus=log_norm(-t_minus),
        log_norm_plus=log_norm(t_plus),
        live=live,
        units=units,
        t_total=pe_iteration_count(r, eps) if t_total is None else int(t_total),
        picked_sum=np.zeros((r, r)),
    )
    start = state.current_value()
    if start >= 1.0:
        # per-step decay rates of ln phi and ln psi; both are positive
        rate_lower = -(t_minus * (1.0 - eps) * mu + state.log_norm_minus)
        rate_upper = t_plus * (1.0 + eps) * mu - state.log_norm_plus
        suggested = math.floor(math.log(2.0 * r) / min(rate_lower, rate_upper)) + 1
        raise TNotLargeEnough(
            f"phi_0 + psi_0 = {start} >= 1 for T = {state.t_total}",
            suggested_t=max(suggested, state.t_total + 1),
        )
    return state


def pe_greedy_step(state: PeState) -> int:
    """Append the pick minimizing phi + psi.

    Every live candidate j is scored at once from the eigenvalues lam of
    its pick sum P + X_j: one stacked eigenvalue-only decomposition, whose
    -t lam and t' lam are the spectra of the two tail exponents.  P and
    every X_j are exactly symmetric, and so is their sum.  Among values
    equal bit for bit the lowest index wins; where candidates tie in
    exact arithmetic, rounding decides.  The estimator property
    guarantees the minimum does not exceed the probability-weighted
    average, hence never exceeds the current value.
    """
    sums = state.picked_sum + state.units
    w = eigvalsh(sums)
    values = state._estimate(-state.t_minus * w, state.t_plus * w, state.t + 1)
    k = int(np.argmin(values))
    state.picked_sum = sums[k].copy()
    best_j = int(state.live[k])
    state.picks.append(best_j)
    return best_j


def pe_sparsify(
    reduced: ReducedInstance,
    eps: float,
    t_total: int | None = None,
    max_seconds: float | None = None,
) -> SparsifierResult:
    """Deterministic sparsifier via T greedy pessimistic-estimator steps.

    Output weights use the same quantization as ``aw_sample``; because the
    final estimator value stays below 1, the certificate eigenvalues are
    guaranteed to lie inside [1-eps, 1+eps] with no randomness involved.
    Raises TNotLargeEnough when the budget cannot force success; retry
    once with the exception's ``suggested_t``.  Raises
    TimeBudgetExceeded when ``max_seconds`` run out before the last step.
    """
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    state = pe_params(reduced, eps, t_total=t_total)
    t_total = state.t_total
    counts = np.zeros(len(reduced), dtype=int)
    for t in range(1, t_total + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(f"pe exceeded {max_seconds} s at step {t}")
        counts[pe_greedy_step(state)] += 1
    y = _quantized_weights(counts, reduced, t_total)
    return SparsifierResult(weights=y, certificate=certificate_for(reduced, y), t_used=t_total)

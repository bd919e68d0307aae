"""The one loop of the scanning solvers ``bss``, ``mmwum-wf``, ``mmwum-block`` and ``pe``.

A step decomposes the running sum A = Q diag(w) Q^T once, turns w into
two coefficient columns c, scores every member j by <C_j, Q diag(c) Q^T>
(``ReducedInstance.scores_in_basis``), picks one pair (j, alpha) and adds
alpha C_j.  The solvers differ only in their potential (Allen-Zhu, Liao
and Orecchia, arXiv 1506.04838, read BSS and MMWU as
follow-the-regularized-leader with two regularizers; the linear
pessimistic estimators of ``pe`` are two more exponential potentials).  A
solver's potential is its schedule, ``BssParams``, ``WfParams``,
``BlockParams`` or ``PeParams``: it has a ``name`` (a class attribute, not
a field, as ``cli.param_dump`` prints every field), a step count ``T``,
``coefficients(w, t)`` giving both columns from the spectrum of A after t
steps or raising the solver's typed errors, and ``pick(scores, coeffs,
reduced)`` giving (j, alpha) from the (m, 2) scores of the members of
``reduced``.  ``drive`` returns the weights y and the picks, the (j, alpha)
of every step, from which A and all that derives from it can be rebuilt;
the solver scales and certifies y and returns the picks with it.

The shared rules live here once: ``drive`` owns the one ``errstate``
(a member with no trace scores 0/0, which the picks mask out) and the
wall-clock ``budget``, also checked before every ``aw-sample`` draw, and
``check_schedule`` is the (eps, rank) check of every schedule but ``pe``'s.

The update adds alpha G_j^T G_j from member j's factor rows, unsymmetrized:
G_j^T G_j is one symmetric product, so exactly symmetric, and entries
(i, k) and (k, i) of the sum round from the same operands.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import TimeBudgetExceeded
from .linalg import ReducedInstance, eigh


def check_schedule(eps: float, n: int) -> None:
    """Raise ValueError unless eps lies in (0, 1) and the rank n is at least 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")


def budget(name: str, max_seconds: float | None):
    """A check(step) raising TimeBudgetExceeded once ``max_seconds`` from now run out."""
    deadline = None if max_seconds is None else time.monotonic() + max_seconds

    def check(step: int) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(f"{name} exceeded {max_seconds} s at iteration {step}")

    return check


def step(
    reduced: ReducedInstance, params, a: np.ndarray, t: int, coeffs: np.ndarray
) -> tuple[int, float]:
    """(j, alpha) at A after t steps; ``coeffs`` is the (r, 2) column buffer."""
    spec = eigh(a)
    coeffs[:, 0], coeffs[:, 1] = params.coefficients(spec.eigenvalues, t)
    return params.pick(reduced.scores_in_basis(spec.eigenvectors, coeffs), coeffs, reduced)


def drive(reduced: ReducedInstance, params, max_seconds: float | None) -> tuple[np.ndarray, list]:
    """Run ``params.T`` steps from A = 0; return the weights y and the picks.

    The picks are every step's (j, alpha), in step order.
    Raises TimeBudgetExceeded when ``max_seconds`` run out before the last step.
    """
    over_budget = budget(params.name, max_seconds)
    a = np.zeros((reduced.rank, reduced.rank))
    y = np.zeros(len(reduced))
    coeffs = np.empty((reduced.rank, 2))
    picks = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(params.T):
            over_budget(t + 1)
            j, alpha = step(reduced, params, a, t, coeffs)
            a = a + alpha * reduced.member(j)
            y[j] += alpha
            picks.append((j, alpha))
    return y, picks

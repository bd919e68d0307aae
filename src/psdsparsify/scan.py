"""The one loop of the scanning solvers ``bss``, ``mmwum-wf`` and ``mmwum-block``.

A step decomposes the running sum A = Q diag(w) Q^T once, turns w into
two coefficient columns c, scores every member j by <C_j, Q diag(c) Q^T>
(``ReducedInstance.scores_in_basis``), picks one pair (j, alpha) and adds
alpha C_j.  The solvers differ only in their potential (Allen-Zhu, Liao
and Orecchia, arXiv 1506.04838, read BSS and MMWU as
follow-the-regularized-leader with two regularizers).  A solver's
potential is its schedule, ``BssParams``, ``WfParams`` or ``BlockParams``:
it has a ``name`` (a class attribute, not a field, as ``cli.param_dump``
prints every field), a step count ``T``, ``coefficients(w, t)`` giving both
columns from the spectrum of A after t steps or raising the solver's typed
errors, and ``pick(scores, coeffs, reduced)`` giving (j, alpha) from the
(m, 2) scores of the members of ``reduced``.  A ``history=`` list gets the
pair (j, alpha) of every step; A, and every quantity derived from it, can
be rebuilt from the pairs.  ``drive`` returns the weights y alone; the
solver certifies them.

The update adds alpha G_j^T G_j from member j's factor rows, unsymmetrized:
G_j^T G_j is one symmetric product, so exactly symmetric, and entries
(i, k) and (k, i) of the sum round from the same operands.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import TimeBudgetExceeded
from .linalg import ReducedInstance, eigh


def step(
    reduced: ReducedInstance, params, a: np.ndarray, t: int, coeffs: np.ndarray
) -> tuple[int, float]:
    """(j, alpha) at A after t steps; ``coeffs`` is the (r, 2) column buffer."""
    spec = eigh(a)
    coeffs[:, 0], coeffs[:, 1] = params.coefficients(spec.eigenvalues, t)
    return params.pick(reduced.scores_in_basis(spec.eigenvectors, coeffs), coeffs, reduced)


def drive(
    reduced: ReducedInstance, params, max_seconds: float | None, history: list | None
) -> np.ndarray:
    """Run ``params.T`` steps from A = 0; return the weights y.

    Appends each step's (j, alpha) to ``history`` when it is a list.
    Raises TimeBudgetExceeded when ``max_seconds`` run out before the last step.
    """
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    a = np.zeros((reduced.rank, reduced.rank))
    y = np.zeros(len(reduced))
    coeffs = np.empty((reduced.rank, 2))
    for t in range(params.T):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(
                f"{params.name} exceeded {max_seconds} s at iteration {t + 1}"
            )
        j, alpha = step(reduced, params, a, t, coeffs)
        a = a + alpha * reduced.member(j)
        y[j] += alpha
        if history is not None:
            history.append((j, alpha))
    return y

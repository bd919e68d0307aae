"""Dense symmetric linear algebra and the reduction to the isotropic case.

Every algorithm in this package works on a collection of positive
semidefinite matrices B_1, ..., B_m whose sum is B.  The reduction
conjugates each B_i by the pseudoinverse square root of B restricted to
range(B), producing matrices C_1, ..., C_m of dimension r = rank(B) with
sum(C_i) = I_r.  All matrices are plain float64 ``numpy`` arrays kept
exactly symmetric.

The scanning solvers score every member against matrices that are
functions of one running sum A, so each is Q diag(c) Q^T in A's
eigenbasis Q and <C_j, Q diag(c) Q^T> = sum_k c_k |G_j q_k|^2 for a
factor G_j with C_j = G_j^T G_j.  ``ReducedInstance`` keeps the factor
rows of all members stacked, built from one eigendecomposition per
member; eigenvalues at or below ``FACTOR_CUT`` times a member's largest
are dropped, which moves a score by at most r * FACTOR_CUT * tr(C_j) *
max|c|.  The dense members stay the source of every update of A and of
every certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimMismatch,
    EmptyProblem,
    ExpOverflow,
    InvalidMatrix,
    NegativeWeight,
    NotPsd,
)

DEFAULT_PSD_TOL = 1e-9

# exp(710) overflows float64; stay a little below
EXP_OVERFLOW_LIMIT = 700.0

# a member's eigenvalues at or below this fraction of its largest are left
# out of its factor rows
FACTOR_CUT = 1e-12

# members decomposed per batched eigh while building the factor rows,
# which bounds the transient (batch, r, r) copies
FACTOR_BATCH = 64


def default_rank_tol(dim: int) -> float:
    """Relative rank cutoff, scaled with dimension to absorb rounding."""
    return 1e-10 * dim


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return 0.5*(M + M^T), which is exactly symmetric entrywise.

    A (k, n, n) stack is symmetrized member by member.
    """
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.swapaxes(-1, -2))


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition of a symmetric matrix, or of a stack of them.

    ``eigenvalues`` is ascending along its last axis; ``eigenvectors`` has
    the matching orthonormal columns, so Q diag(w) Q^T reconstructs the
    input (member by member for a stack).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _checked_square(m: np.ndarray) -> np.ndarray:
    """``m`` as a float array, if it is a finite square matrix or stack of them."""
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise InvalidMatrix(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidMatrix("matrix has non-finite entries")
    return m


def eigh(m: np.ndarray) -> Spectrum:
    """Eigendecompose a symmetric matrix, ascending eigenvalue order.

    A (k, n, n) stack is decomposed in one batched call.  Each member goes
    through the same LAPACK routine on the same bytes as a call on that
    member alone, so the stacked result equals the per-matrix results bit
    for bit.
    """
    w, q = np.linalg.eigh(_checked_square(m))
    return Spectrum(eigenvalues=w, eigenvectors=q)


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues alone of a symmetric matrix or stack, ascending.

    Takes the inputs ``eigh`` takes and raises what it raises; a stack
    equals the per-matrix results bit for bit, as there.
    """
    return np.linalg.eigvalsh(_checked_square(m))


def is_psd(m: np.ndarray, tol: float = DEFAULT_PSD_TOL):
    """True iff lambda_min(M) >= -tol * max(1, spectral radius of M).

    A (k, n, n) stack is checked with one stacked eigendecomposition and
    gives a boolean array with one verdict per member.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    w = eigh(m).eigenvalues
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1, initial=0.0))
    verdict = w[..., 0] >= -tol * scale
    return bool(verdict) if verdict.ndim == 0 else verdict


# no solver calls it; kept for the benchmark's kernel timings (bench/spans.py)
def sym_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential via eigendecomposition (exact for symmetric M)."""
    spec = eigh(m)
    if float(spec.eigenvalues[-1]) > EXP_OVERFLOW_LIMIT:
        raise ExpOverflow(
            f"largest exponent {spec.eigenvalues[-1]:.2f} exceeds {EXP_OVERFLOW_LIMIT}"
        )
    q = spec.eigenvectors
    return symmetrize((q * np.exp(spec.eigenvalues)) @ q.T)


def ln_sum_exp(w: np.ndarray) -> np.ndarray:
    """log(sum exp(w)) along the last axis, computed stably.

    A (k, n) stack gives one value per row.
    """
    top = np.max(w, axis=-1)
    return top + np.log(np.sum(np.exp(w - top[..., None]), axis=-1))


@dataclass(frozen=True)
class PsdCollection:
    """Ordered list of PSD matrices sharing one dimension."""

    dim: int
    matrices: list[np.ndarray]

    def __len__(self) -> int:
        return len(self.matrices)

    @staticmethod
    def from_matrices(matrices, validate: bool = True) -> "PsdCollection":
        """Symmetrize and check a sequence of (n, n) matrices or an (m, n, n) stack.

        The members are views of one symmetrized stack.  ``validate``
        checks them all with one stacked eigendecomposition; the first
        member that is not PSD raises NotPsd.
        """
        mats = [np.asarray(m, dtype=float) for m in matrices]
        if not mats:
            raise EmptyProblem("collection has no matrices")
        dim = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (dim, dim):
                raise DimMismatch(f"matrix {i} has shape {m.shape}, expected {(dim, dim)}")
        # symmetrize(m) member by member, written straight into one stack
        stack = np.empty((len(mats), dim, dim))
        for k, m in enumerate(mats):
            np.add(m, m.T, out=stack[k])
        stack *= 0.5
        if validate:
            # members before the first non-finite one are judged first
            finite = np.isfinite(stack).all(axis=(1, 2))
            upto = int(np.argmin(finite)) if not finite.all() else len(stack)
            psd = is_psd(stack[:upto]) if upto else np.ones(0, dtype=bool)
            if not psd.all():
                raise NotPsd(
                    f"matrix {int(np.argmin(psd))} is not PSD at tolerance {DEFAULT_PSD_TOL}"
                )
            if upto < len(stack):
                eigh(stack[upto])
        return PsdCollection(dim=dim, matrices=list(stack))

    def total(self) -> np.ndarray:
        """B = sum_i B_i."""
        out = np.zeros((self.dim, self.dim))
        for m in self.matrices:
            out += m
        return symmetrize(out)


@dataclass(frozen=True)
class ReducedInstance:
    """Whitened collection C_1..C_m with sum(C_i) = I on range(B).

    ``basis`` holds the n x r orthonormal range basis P and ``whitener``
    the composed map (B^+)^{1/2} P, so C_i = whitener^T B_i whitener and
    any weight vector found for the C_i applies verbatim to the B_i.
    """

    rank: int
    matrices: list[np.ndarray]
    basis: np.ndarray
    whitener: np.ndarray

    def __len__(self) -> int:
        return len(self.matrices)

    @cached_property
    def traces(self) -> np.ndarray:
        return np.array([float(np.trace(c)) for c in self.matrices])

    @cached_property
    def has_trace(self) -> np.ndarray:
        """traces > 0: the members a scanning solver may pick."""
        return self.traces > 0.0

    @cached_property
    def factor_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked factor rows ``g`` (K, r), each member's first row, and
        which members have rows.

        Member j owns the rows sqrt(w_k) q_k^T of its eigenpairs with
        w_k > FACTOR_CUT * max(w), so those rows g satisfy
        sum g g^T = C_j up to the dropped eigenvalues.
        """
        rows, counts = [], []
        for lo in range(0, len(self.matrices), FACTOR_BATCH):
            spec = eigh(np.stack(self.matrices[lo : lo + FACTOR_BATCH]))
            w, q = spec.eigenvalues, spec.eigenvectors
            keep = (w > FACTOR_CUT * w[:, -1:]) & (w[:, -1:] > 0.0)
            scaled = q.swapaxes(1, 2) * np.sqrt(np.where(keep, w, 0.0))[:, :, None]
            rows.append(scaled[keep])
            counts.append(keep.sum(axis=1))
        counts = np.concatenate(counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return np.concatenate(rows), starts, counts > 0

    @cached_property
    def _all_have_rows(self) -> bool:
        return bool(self.factor_rows[2].all())

    def _segment_sums(self, per_row: np.ndarray) -> np.ndarray:
        """Sum ``per_row`` over each member's rows; a member without rows gets 0."""
        _, starts, has_rows = self.factor_rows
        if self._all_have_rows:
            return np.add.reduceat(per_row, starts, axis=0)
        out = np.zeros((len(starts),) + per_row.shape[1:])
        out[has_rows] = np.add.reduceat(per_row, starts[has_rows], axis=0)
        return out

    def scores_in_basis(self, q: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """<C_j, Q diag(c) Q^T> for every member j and every column c of coeffs.

        ``q`` holds orthonormal columns q_k and ``coeffs`` one row per
        column of ``q``; the result has one row per member and one column
        per column of ``coeffs`` (a 1-D ``coeffs`` gives a 1-D result).
        """
        g = self.factor_rows[0]
        p = g @ q
        np.square(p, out=p)
        return self._segment_sums(p @ coeffs)

    # no solver calls it; kept for the benchmark's kernel timings (bench/spans.py)
    def score_all(self, v: np.ndarray) -> np.ndarray:
        """Trace inner product of every member with the matrix v."""
        g = self.factor_rows[0]
        return self._segment_sums(np.einsum("ki,ki->k", g @ v, g))

    def weighted_sum(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros((self.rank, self.rank))
        for yi, c in zip(y, self.matrices):
            if yi != 0.0:
                out += yi * c
        return symmetrize(out)


def reduce_to_identity(coll: PsdCollection) -> ReducedInstance:
    """Whiten a collection so its members sum to the identity on range(B)."""
    rank_tol = default_rank_tol(coll.dim)
    b = coll.total()
    spec = eigh(b)
    w, q = spec.eigenvalues, spec.eigenvectors
    lam_max = float(w[-1])
    if lam_max <= 0.0 or not np.any(w > rank_tol * lam_max):
        raise EmptyProblem("sum of the collection is numerically zero")
    keep = w > rank_tol * lam_max
    basis = q[:, keep]
    whitener = basis / np.sqrt(w[keep])  # = (B^+)^{1/2} P column-scaled
    rank = int(np.count_nonzero(keep))

    # range(B_i) must lie inside range(B); failure means a non-PSD member
    # slipped past validation.
    residual_proj = np.eye(coll.dim) - basis @ basis.T
    mats = []
    for i, m in enumerate(coll.matrices):
        outside = residual_proj @ m @ residual_proj
        if np.linalg.norm(outside, "fro") > 1e-8 * max(1.0, lam_max):
            raise NotPsd(f"matrix {i} has range outside range(B)")
        mats.append(symmetrize(whitener.T @ m @ whitener))
    return ReducedInstance(rank=rank, matrices=mats, basis=basis, whitener=whitener)


@dataclass(frozen=True)
class SandwichCertificate:
    """Extreme eigenvalues of the whitened reweighted sum on range(B)."""

    lambda_min: float
    lambda_max: float
    support_size: int

    @property
    def epsilon_achieved(self) -> float:
        return float("inf") if self.lambda_min <= 0.0 else self.lambda_max / self.lambda_min - 1.0

    def passes(self, eps: float, tol: float = 1e-6) -> bool:
        """B <= sum(y_i B_i) <= (1+eps) B up to relative slack tol."""
        return self.lambda_min >= 1.0 - tol and self.lambda_max <= (1.0 + eps) * (1.0 + tol)

    def within_window(self, lo: float, hi: float, tol: float = 1e-6) -> bool:
        return self.lambda_min >= lo - tol and self.lambda_max <= hi + tol


@dataclass(frozen=True)
class SparsifierResult:
    """Nonnegative weights, their support, and the spectral certificate.

    ``reduced_rank`` records the whitened dimension the run worked in when
    the caller went through the reduction wrapper; ``t_used`` records the
    number of draws or greedy steps a sampling run quantized its weights
    by.
    """

    weights: np.ndarray
    certificate: SandwichCertificate
    reduced_rank: int | None = None
    t_used: int | None = None

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0.0)


def certificate_for(reduced: ReducedInstance, y: np.ndarray) -> SandwichCertificate:
    """Certificate of an already-whitened instance under weights y."""
    s = reduced.weighted_sum(y)
    w = eigh(s).eigenvalues
    return SandwichCertificate(
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
        support_size=int(np.count_nonzero(np.asarray(y) > 0.0)),
    )


def verify_sandwich(coll: PsdCollection, y: np.ndarray) -> SandwichCertificate:
    """Whiten sum(y_i B_i) against B = sum(B_i) and report the extremes.

    The returned certificate ``passes(eps, tol)`` iff
    lambda_min >= 1 - tol and lambda_max <= (1+eps)(1+tol).
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (len(coll),):
        raise DimMismatch(f"weight vector has shape {y.shape}, expected ({len(coll)},)")
    if np.any(y < 0.0):
        raise NegativeWeight("weight vector has a negative entry")
    reduced = reduce_to_identity(coll)
    return certificate_for(reduced, y)

"""Dense symmetric linear algebra and the reduction to the isotropic case.

Every algorithm in this package works on a collection of positive
semidefinite matrices B_1, ..., B_m whose sum is B.  The reduction
conjugates each B_i by the pseudoinverse square root of B restricted to
range(B), producing matrices C_1, ..., C_m of dimension r = rank(B) with
sum(C_i) = I_r.

A collection comes in one of two forms.  A dense collection
(``PsdCollection.from_matrices``) is one C-contiguous float64 (m, n, n)
stack of exactly symmetric members.  A rows collection
(``PsdCollection.from_rows``) is the factor rows F_j of every member,
B_j = F_j^T F_j, as one (K, n) stack, next to B summed in closed form by
its builder; graph, hypergraph and lifted members take this form, O(K n)
memory with no n x n matrix per member.

A whitened member is held only as its stacked factor rows G_j, with
C_j = G_j^T G_j, which serve all the solvers need: <C_j, X>, the update
A + alpha C_j and the certificate sum sum_j y_j C_j.  None of these needs
the rows of one member to be orthogonal, and they need not be.  The
scanning solvers score against Q diag(c) Q^T in the eigenbasis Q of their
running sum A: <C_j, Q diag(c) Q^T> = sum_k c_k |G_j q_k|^2.  A
``ReducedInstance`` is those rows, their bounds and the traces tr(C_j):
weights found for the C_i apply to the B_i, so it keeps no whitener.

A dense member is factored by ``eigh`` into its eigen-rows
sqrt(w_k) q_k^T; eigenvalues at or below ``FACTOR_CUT`` times a member's
largest are dropped (and so is any negative rounding eigenvalue), which
moves a score by at most r * FACTOR_CUT * tr(C_j) * max|c|, an update by
at most alpha * FACTOR_CUT * tr(C_j) and a certificate eigenvalue by at
most FACTOR_CUT * sum_j y_j tr(C_j).  A rows member is whitened by the
one product F W and keeps every row, so the ``FACTOR_CUT`` bounds apply to
dense members only.

Dense members are checked for PSD, and whitened and factored, in slices
on a thread pool of one worker per CPU the process may use
(``os.sched_getaffinity``) and per ``FACTOR_BATCH`` members; with w
workers a slice holds ceil(``FACTOR_BATCH`` / w) members, so about
``FACTOR_BATCH`` members are in flight on any CPU count.  numpy's LAPACK
and BLAS loops release the GIL, so the workers decompose side by side.
The results are joined in member order, so they equal a serial run bit
for bit, and the error of the earliest failing slice is the one raised.

Every solver ends with ``certificate_for`` on its weights, and ``rescaled``
is the one lambda_min rescale.  ``verify_sandwich`` certifies weights in the
caller's space instead, as eigvalsh(W^T (sum_i y_i B_i) W), and factors no
member.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import (
    DegenerateCertificate,
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

# dense members checked, whitened and factored in flight across all threads,
# or summed at a time, which bounds their transient arrays
FACTOR_BATCH = 64

# factor rows weighted and summed at a time, which bounds the weighted copy
ROW_BATCH = 4096

# relative slack every acceptance check allows for rounding
CHECK_TOL = 1e-6


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return 0.5*M + 0.5*M^T, which is exactly symmetric entrywise.

    It equals 0.5*(M + M^T) bit for bit unless the halves are subnormal,
    and stays finite where M + M^T would overflow.  A (k, n, n) stack is
    symmetrized member by member.
    """
    m = np.asarray(m, dtype=float)
    return 0.5 * m + 0.5 * m.swapaxes(-1, -2)


def member_sum(stack: np.ndarray) -> np.ndarray:
    """sum_i stack[i], added in member order (numpy's sum over axis 0 would
    add 1 x 1 members pairwise, along their one contiguous axis)."""
    if stack.shape[1] == 1:
        return np.add.accumulate(stack, axis=0)[-1]
    return stack.sum(axis=0)


def symmetric_stack(stack: np.ndarray) -> np.ndarray:
    """``stack`` itself if every member equals its transpose, else a copy
    with the other members symmetrized."""
    skew = ~(stack == stack.swapaxes(1, 2)).all(axis=(1, 2))
    if skew.any():
        stack = stack.copy()
        stack[skew] = symmetrize(stack[skew])
    return stack


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _map_batches(call, count: int) -> list:
    """[call(part) for every slice part of range(count)], in slice order.

    With w = min(usable CPUs, ceil(count / FACTOR_BATCH)) workers, each
    slice holds ceil(FACTOR_BATCH / w) members, so about FACTOR_BATCH
    members are in flight however many CPUs there are; numpy's LAPACK and
    BLAS loops release the GIL, so the slices decompose side by side.  The
    exception of the earliest failing slice is raised once every slice
    before it has run, as a serial run would raise it.  One worker runs the
    slices in the calling thread and starts no thread.
    """
    workers = max(min(_usable_cpus(), -(-count // FACTOR_BATCH)), 1)
    size = -(-FACTOR_BATCH // workers)
    parts = [slice(lo, lo + size) for lo in range(0, count, size)]
    if workers == 1:
        return [call(part) for part in parts]
    # imported here: concurrent.futures loads logging (about 5 ms), which
    # neither a graph-type input nor a stack of one batch needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(call, parts))


def _checked_square(m: np.ndarray) -> np.ndarray:
    """``m`` as a float array, if it is a finite square matrix or stack of them."""
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise InvalidMatrix(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidMatrix("matrix has non-finite entries")
    return m


def eigh(m: np.ndarray):
    """numpy's ``eigh`` of a finite symmetric matrix or (k, n, n) stack.

    The result has ``eigenvalues`` ascending along the last axis and the
    matching orthonormal columns in ``eigenvectors`` (named fields since
    numpy 2.0, the declared floor), and unpacks as ``w, q``.  A stack is decomposed in one batched call.  Each member goes
    through the same LAPACK routine on the same bytes as a call on that
    member alone, so the stacked result equals the per-matrix results bit
    for bit.
    """
    return np.linalg.eigh(_checked_square(m))


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues alone of a symmetric matrix or stack, ascending.

    Takes the inputs ``eigh`` takes and raises what it raises; a stack
    equals the per-matrix results bit for bit, as there.
    """
    return np.linalg.eigvalsh(_checked_square(m))


def is_psd(m: np.ndarray, tol: float = DEFAULT_PSD_TOL):
    """True iff lambda_min(M) >= -tol * max(1, spectral radius of M).

    A (k, n, n) stack is checked with one stacked eigenvalue-only
    decomposition and gives a boolean array with one verdict per member.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    w = eigvalsh(m)
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1, initial=0.0))
    verdict = w[..., 0] >= -tol * scale
    return bool(verdict) if verdict.ndim == 0 else verdict


# no solver calls it; kept for the benchmark's kernel timings (bench/spans.py)
def sym_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential via eigendecomposition (exact for symmetric M)."""
    w, q = eigh(m)
    if float(w[-1]) > EXP_OVERFLOW_LIMIT:
        raise ExpOverflow(f"largest exponent {w[-1]:.2f} exceeds {EXP_OVERFLOW_LIMIT}")
    return symmetrize((q * np.exp(w)) @ q.T)


def ln_sum_exp(w: np.ndarray) -> np.ndarray:
    """log(sum exp(w)) along the last axis, computed stably.

    A (k, n) stack gives one value per row.
    """
    top = np.max(w, axis=-1)
    return top + np.log(np.sum(np.exp(w - top[..., None]), axis=-1))


def _check_members(stack: np.ndarray, part: slice):
    """Raise for the first member of stack[part] that is not PSD.

    Members before the first non-finite one are judged first: NotPsd names
    the first of them that fails, and otherwise the non-finite one raises
    InvalidMatrix.
    """
    batch = stack[part]
    finite = np.isfinite(batch).all(axis=(1, 2))
    upto = int(np.argmin(finite)) if not finite.all() else len(batch)
    psd = is_psd(batch[:upto]) if upto else np.ones(0, dtype=bool)
    if not psd.all():
        bad = part.start + int(np.argmin(psd))
        raise NotPsd(f"matrix {bad} is not PSD at tolerance {DEFAULT_PSD_TOL}")
    if upto < len(batch):
        eigvalsh(batch[upto])


@dataclass(frozen=True)
class PsdCollection:
    """PSD matrices B_1..B_m sharing one dimension, in one of two forms.

    Dense: ``matrices`` is one (m, dim, dim) stack and ``rows``, ``bounds``
    and ``b`` are None.  Rows: member j is F_j^T F_j for its factor rows
    F_j = ``rows[bounds[j]:bounds[j + 1]]`` of the (K, dim) ``rows``, ``b`` is
    B as its builder summed it, and ``matrices`` is None.
    """

    dim: int
    matrices: np.ndarray | None = None
    rows: np.ndarray | None = None
    bounds: np.ndarray | None = None
    b: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.matrices) if self.rows is None else len(self.bounds) - 1

    @staticmethod
    def from_matrices(matrices, validate: bool = True) -> "PsdCollection":
        """Symmetrize and check a sequence of (n, n) matrices or an (m, n, n) stack.

        A float64 C-contiguous stack whose members all equal their
        transposes is kept as it is, without a copy; otherwise the members
        are stacked once and only those that are not symmetric are
        symmetrized.  The caller's arrays are never written.  ``validate``
        checks the members with one stacked eigenvalue-only decomposition;
        the first member that is not PSD raises NotPsd.
        """
        if not isinstance(matrices, np.ndarray):
            matrices = [np.asarray(m, dtype=float) for m in matrices]
            for i, m in enumerate(matrices):
                if m.ndim != 2:  # a 0-d member has no dimension to compare
                    raise DimMismatch(f"matrix {i} has shape {m.shape}, expected (n, n)")
                expected = (matrices[0].shape[0],) * 2
                if m.shape != expected:
                    raise DimMismatch(f"matrix {i} has shape {m.shape}, expected {expected}")
        elif matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise DimMismatch(f"stack has shape {matrices.shape}, expected (m, n, n)")
        if len(matrices) == 0:
            raise EmptyProblem("collection has no matrices")
        dim = matrices[0].shape[0]
        if dim < 1:
            raise DimMismatch(f"dimension must be positive, got {dim}")
        stack = symmetric_stack(np.ascontiguousarray(matrices, dtype=float))
        if validate:
            _map_batches(partial(_check_members, stack), len(stack))
        return PsdCollection(dim=dim, matrices=stack)

    @staticmethod
    def from_rows(dim: int, rows, bounds, total) -> "PsdCollection":
        """Members F_j^T F_j given by their factor rows, and their sum B.

        Member j owns ``rows[bounds[j]:bounds[j + 1]]``; ``total`` is B, which
        the caller sums in closed form, so its bits do not depend on the rows.
        A ``total`` with an entry beyond float64 raises InvalidMatrix.
        """
        rows = np.ascontiguousarray(rows, dtype=float)
        bounds = np.asarray(bounds, dtype=np.int64)
        total = np.asarray(total, dtype=float)
        if len(bounds) < 2:
            raise EmptyProblem("collection has no matrices")
        if dim < 1:
            raise DimMismatch(f"dimension must be positive, got {dim}")
        if rows.ndim != 2 or rows.shape[1] != dim or total.shape != (dim, dim):
            raise DimMismatch(
                f"rows {rows.shape} and total {total.shape} do not fit dimension {dim}"
            )
        if bounds[0] != 0 or bounds[-1] != len(rows) or np.any(np.diff(bounds) < 0):
            raise DimMismatch(f"row bounds do not split {len(rows)} rows into members")
        if not np.isfinite(total).all():
            raise InvalidMatrix("an entry of the sum of the collection overflows float64")
        return PsdCollection(dim=dim, rows=rows, bounds=bounds, b=total)

    def total(self) -> np.ndarray:
        """B = sum_i B_i; raises InvalidMatrix when an entry leaves float64."""
        if self.rows is not None:
            return self.b
        with np.errstate(over="ignore"):
            out = member_sum(self.matrices)
        if not np.isfinite(out).all():
            raise InvalidMatrix("an entry of the sum of the collection overflows float64")
        return out

    def weighted_sum(self, y: np.ndarray) -> np.ndarray:
        """sum_i y_i B_i for nonnegative weights y.

        Dense members with y_i > 0 are added in member order, as
        ``member_sum`` adds them, ``FACTOR_BATCH`` at a time; rows go
        through ``row_weighted_sum``.
        """
        y = np.asarray(y, dtype=float)
        if self.rows is not None:
            return row_weighted_sum(self.rows, self.bounds, y)
        out = np.zeros((self.dim, self.dim))
        support = np.flatnonzero(y > 0.0)
        for lo in range(0, len(support), FACTOR_BATCH):
            at = support[lo : lo + FACTOR_BATCH]
            out = member_sum(np.concatenate((out[None], y[at, None, None] * self.matrices[at])))
        return out


def row_weighted_sum(rows: np.ndarray, bounds: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j y_j F_j^T F_j as symmetrize(F^T (y per row * F)).

    The product runs ``ROW_BATCH`` rows at a time, so the weighted copy of
    the rows never holds more than one block; with at most ``ROW_BATCH``
    rows it is one product.
    """
    per_row = np.repeat(np.asarray(y, dtype=float), np.diff(bounds))
    out = None
    for lo in range(0, max(len(rows), 1), ROW_BATCH):
        f = rows[lo : lo + ROW_BATCH]
        part = f.T @ (per_row[lo : lo + ROW_BATCH, None] * f)
        out = part if out is None else out + part
    return symmetrize(out)


def _member_sums(bounds: np.ndarray, per_row: np.ndarray) -> np.ndarray:
    """Sum a value per row over the rows of each member; a member without rows gets 0."""
    counts = np.diff(bounds)
    return np.bincount(np.repeat(np.arange(len(counts)), counts), per_row, len(counts))


def _factor(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Traces, stacked factor rows and row counts of a (k, r, r) batch of members."""
    batch = symmetric_stack(np.asarray(batch, dtype=float))
    traces = np.trace(batch, axis1=1, axis2=2)
    w, q = eigh(batch)
    del batch
    keep = (w > FACTOR_CUT * w[:, -1:]) & (w[:, -1:] > 0.0)
    q *= np.sqrt(np.where(keep, w, 0.0))[:, None, :]  # column k times sqrt(w_k)
    return traces, q.swapaxes(1, 2)[keep], keep.sum(axis=1)


def _whitened_factors(coll: "PsdCollection", whitener: np.ndarray, part: slice):
    """``_factor`` of the dense members coll.matrices[part], whitened."""
    c = whitener.T @ coll.matrices[part] @ whitener
    c *= 0.5
    c += c.swapaxes(1, 2)  # symmetrize(c), bit for bit, with one copy fewer
    return _factor(c)


@dataclass(frozen=True)
class ReducedInstance:
    """Whitened collection C_1..C_m with sum(C_i) = I on range(B), as factor rows.

    Member j owns the rows G_j = ``rows[bounds[j]:bounds[j + 1]]``, with
    C_j = G_j^T G_j, and ``traces`` are the tr(C_j).  A dense member's rows are
    its eigen-rows sqrt(w_k) q_k^T for w_k > FACTOR_CUT * max(w), which are
    orthogonal with squared norms w_k, and its trace is that of the dense C_j; a
    rows member's rows are its builder's rows times the whitener, in general not
    orthogonal, and its trace is their squared Frobenius norm.
    """

    rows: np.ndarray
    bounds: np.ndarray
    traces: np.ndarray

    @staticmethod
    def factored(batches) -> "ReducedInstance":
        """Factor whitened members given as (k, r, r) batches; no batch is kept."""
        return _joined(map(_factor, batches))

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def rank(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def has_trace(self) -> np.ndarray:
        """traces > 0: the members a scanning solver may pick."""
        return self.traces > 0.0

    def member(self, j: int) -> np.ndarray:
        """C_j = G_j^T G_j, dense; one symmetric product, so exactly symmetric."""
        g = self.rows[self.bounds[j] : self.bounds[j + 1]]
        return g.T @ g

    @cached_property
    def _has_rows(self) -> np.ndarray | None:
        """Which members have rows; None when every member has."""
        has = np.diff(self.bounds) > 0
        return None if has.all() else has

    def _segment_sums(self, per_row: np.ndarray) -> np.ndarray:
        """Sum ``per_row`` over each member's rows; a member without rows gets 0."""
        starts, has_rows = self.bounds[:-1], self._has_rows
        if has_rows is None:
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
        p = self.rows @ q
        np.square(p, out=p)
        return self._segment_sums(p @ coeffs)

    # no solver calls it; kept for the benchmark's kernel timings (bench/spans.py)
    def score_all(self, v: np.ndarray) -> np.ndarray:
        """<C_j, v> for every member j and a symmetric matrix v.

        It scores the way a scanning step does: one ``eigh`` of v, then
        ``scores_in_basis`` in its eigenbasis with its eigenvalues.
        """
        w, q = eigh(v)
        return self.scores_in_basis(q, w)

    def weighted_sum(self, y: np.ndarray) -> np.ndarray:
        """sum_j y_j C_j, by ``row_weighted_sum`` over the factor rows."""
        return row_weighted_sum(self.rows, self.bounds, y)


def _joined(parts) -> ReducedInstance:
    """The instance of ``_factor``'s results on consecutive batches of members."""
    traces, rows, counts = zip(*parts)
    return ReducedInstance(
        rows=np.concatenate(rows),
        bounds=np.concatenate(([0], np.cumsum(np.concatenate(counts)))),
        traces=np.concatenate(traces),
    )


def whiten(coll: PsdCollection) -> np.ndarray:
    """The whitener W = (B^+)^{1/2} P of B = sum(B_i), for the n x r
    orthonormal range basis P of B.

    The C_i = W^T B_i W sum to I_r, so weights found for the C_i apply to
    the B_i.  Also checks that range(B_i) lies inside range(B) for every
    member, as the norm of B_i outside range(B) against 1e-8
    max(1, lambda_max(B)); failure means a non-PSD member slipped past
    validation.  With N an orthonormal basis of the complement of range(B),
    a dense member is judged by |N^T B_i N|_F and a rows member by
    |F_j N|^2, the trace of its part outside range(B), which bounds that
    norm.  At full rank N has no columns.  A sum whose eigenvalue is
    beyond the float64 range raises InvalidMatrix.
    """
    rank_tol = 1e-10 * coll.dim  # relative rank cutoff, scaled with dimension to absorb rounding
    w, q = eigh(coll.total())
    if not np.isfinite(w).all():
        raise InvalidMatrix("an eigenvalue of the sum of the collection overflows float64")
    lam_max = float(w[-1])
    if lam_max <= 0.0 or not np.any(w > rank_tol * lam_max):
        raise EmptyProblem("sum of the collection is numerically zero")
    keep = w > rank_tol * lam_max
    whitener = q[:, keep] / np.sqrt(w[keep])  # = (B^+)^{1/2} P column-scaled
    null = q[:, ~keep]
    if coll.rows is not None:
        outside = coll.rows @ null
        residual = _member_sums(coll.bounds, np.einsum("ki,ki->k", outside, outside))
    else:
        outside = (
            null.T @ coll.matrices[lo : lo + FACTOR_BATCH] @ null
            for lo in range(0, len(coll), FACTOR_BATCH)
        )
        residual = np.concatenate([np.linalg.norm(o, axis=(1, 2)) for o in outside])
    bad = np.flatnonzero(residual > 1e-8 * max(1.0, lam_max))
    if len(bad):
        raise NotPsd(f"matrix {int(bad[0])} has range outside range(B)")
    return whitener


def reduce_to_identity(coll: PsdCollection) -> ReducedInstance:
    """Whiten a collection so its members sum to the identity on range(B).

    Rows members are whitened by one product with the whitener; dense
    members are whitened and factored in slices, at most about
    ``FACTOR_BATCH`` of them in flight.
    """
    whitener = whiten(coll)
    if coll.rows is not None:
        rows = coll.rows @ whitener
        return ReducedInstance(
            rows=rows,
            bounds=coll.bounds,
            traces=_member_sums(coll.bounds, np.einsum("ki,ki->k", rows, rows)),
        )
    return _joined(_map_batches(partial(_whitened_factors, coll, whitener), len(coll)))


@dataclass(frozen=True)
class SandwichCertificate:
    """Extreme eigenvalues of the whitened reweighted sum on range(B)."""

    lambda_min: float
    lambda_max: float
    support_size: int

    @property
    def epsilon_achieved(self) -> float:
        return float("inf") if self.lambda_min <= 0.0 else self.lambda_max / self.lambda_min - 1.0

    def passes(self, eps: float) -> bool:
        """B <= sum(y_i B_i) <= (1+eps) B up to relative slack CHECK_TOL."""
        lo, hi = 1.0 - CHECK_TOL, (1.0 + eps) * (1.0 + CHECK_TOL)
        return self.lambda_min >= lo and self.lambda_max <= hi

    def within_window(self, lo: float, hi: float) -> bool:
        return self.lambda_min >= lo - CHECK_TOL and self.lambda_max <= hi + CHECK_TOL


@dataclass(frozen=True)
class SparsifierResult:
    """Nonnegative weights, their support, and the spectral certificate.

    ``reduced_rank`` records the whitened dimension the run worked in when
    the caller went through the reduction wrapper; ``t_used`` records the
    number of draws or steps the run took; ``picks`` holds a scanning
    solver's (j, alpha) of every step as ``scan.drive`` returns them, before
    the solver scales its weights (None for ``aw_sample``).
    """

    weights: np.ndarray
    certificate: SandwichCertificate
    reduced_rank: int | None = None
    t_used: int | None = None
    picks: list | None = None

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


def rescaled(result: SparsifierResult, algo: str) -> SparsifierResult:
    """``result`` with its weights divided by its lambda_min, which then reads 1.

    Raises DegenerateCertificate when lambda_min is not finite and positive.
    """
    lam_min, lam_max = result.certificate.lambda_min, result.certificate.lambda_max
    if not (np.isfinite(lam_min) and lam_min > 0.0):
        raise DegenerateCertificate(
            f"{algo} returned lambda_min = {lam_min}; the weights cannot be rescaled"
        )
    y = result.weights / lam_min
    cert = SandwichCertificate(1.0, lam_max / lam_min, int(np.count_nonzero(y > 0.0)))
    return replace(result, weights=y, certificate=cert)


def verify_sandwich(coll: PsdCollection, y: np.ndarray) -> SandwichCertificate:
    """Whiten sum(y_i B_i) against B = sum(B_i) and report the extremes.

    The certificate is computed in the caller's space, as
    eigvalsh(symmetrize(W^T (sum_i y_i B_i) W)) for the whitener W of
    ``whiten``; no member is factored.  It ``passes(eps)`` iff
    lambda_min >= 1 - CHECK_TOL and lambda_max <= (1+eps)(1+CHECK_TOL).
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (len(coll),):
        raise DimMismatch(f"weight vector has shape {y.shape}, expected ({len(coll)},)")
    if not (np.isfinite(y) & (y >= 0.0)).all():
        raise NegativeWeight("weight vector has a negative or non-finite entry")
    whitener = whiten(coll)
    w = eigvalsh(symmetrize(whitener.T @ coll.weighted_sum(y) @ whitener))
    return SandwichCertificate(
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
        support_size=int(np.count_nonzero(y > 0.0)),
    )

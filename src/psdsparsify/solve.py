"""Algorithm registry and the one-sided sandwich wrapper.

The raw algorithms come in two normalizations: ``bss`` pins the lower
eigenvalue at 1 with ratio bound ((2+eps)/(2-eps))^2, while the MMWUM and
sampling methods center eigenvalues inside [1-eps, 1+eps].
``sparsify_sum`` converts any of them into the one-sided contract
B <= sum(y_i B_i) <= (1+eps) B by running at the internal accuracy
eps/(2+eps) and dividing the weights by their lambda_min (``rescaled``);
(1+x)/(1-x) = 1+eps at x = eps/(2+eps), and the bss ratio is tighter
still, so the rescaled spectrum fits the target window for every method.
"""

from __future__ import annotations

from dataclasses import replace

from . import scan
from .bss import BssParams, bss_sparsify
from .errors import SamplesMissed
from .linalg import (
    CHECK_TOL,
    PsdCollection,
    SandwichCertificate,
    SparsifierResult,
    reduce_to_identity,
    rescaled,
)
from .mmwum_block import BlockParams, block_sparsify
from .mmwum_wf import WfParams, wf_sparsify
from .sampling import PeParams, aw_sample, pe_sparsify

ALGORITHMS = ("bss", "mmwum-wf", "mmwum-block", "aw-sample", "pe")

# every solver's schedule, its ``scan`` potential; only ``aw-sample`` has
# none, and it alone draws at random
SCHEDULES = {p.name: p for p in (BssParams, WfParams, BlockParams, PeParams)}
DETERMINISTIC = {algo: algo in SCHEDULES for algo in ALGORITHMS}

# draws ``aw-sample`` makes before it gives up; each lands inside its window
# with probability above 1/2, so all of them miss with probability below 2^-20
AW_ATTEMPTS = 20


def run_algorithm(
    reduced,
    eps: float,
    algo: str,
    seed: int = 0,
    max_seconds: float | None = None,
) -> SparsifierResult:
    """Run one algorithm under its own normalization contract."""
    if algo == "bss":
        return bss_sparsify(reduced, eps, max_seconds=max_seconds)
    if algo == "mmwum-wf":
        return wf_sparsify(reduced, eps, max_seconds=max_seconds)
    if algo == "mmwum-block":
        return block_sparsify(reduced, eps, max_seconds=max_seconds)
    if algo == "aw-sample":
        # Las Vegas: redraw a miss, degenerate draws included, while the
        # budget lasts; attempt 0 keeps the seed's own draw
        over_budget = scan.budget(algo, max_seconds)
        for attempt in range(AW_ATTEMPTS):
            over_budget(attempt + 1)
            result = aw_sample(reduced, eps, seed=[seed, attempt] if attempt else seed)
            if certificate_passes(algo, eps, result.certificate):
                return result
        raise SamplesMissed(f"aw-sample missed its window on {AW_ATTEMPTS} draws from seed {seed}")
    if algo == "pe":
        # the budget forces phi_0 + psi_0 < 1, so the walk needs no retry
        return pe_sparsify(reduced, eps, max_seconds=max_seconds)
    raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")


def certificate_passes(algo: str, eps: float, cert: SandwichCertificate) -> bool:
    """Per-algorithm acceptance window for a raw (unwrapped) run."""
    if algo == "bss":
        return cert.lambda_min >= 1.0 - CHECK_TOL and (
            cert.lambda_max / cert.lambda_min <= ((2.0 + eps) / (2.0 - eps)) ** 2 + CHECK_TOL
        )
    return cert.within_window(1.0 - eps, 1.0 + eps)


def internal_epsilon(eps: float) -> float:
    """Accuracy to request so the rescaled ratio stays below 1 + eps."""
    return eps / (2.0 + eps)


def sparsify_sum(
    coll: PsdCollection,
    eps: float,
    algo: str = "bss",
    seed: int = 0,
    max_seconds: float | None = None,
) -> SparsifierResult:
    """Solve B <= sum(y_i B_i) <= (1+eps) B with few nonzero weights."""
    reduced = reduce_to_identity(coll)
    del coll  # the solvers read only the whitened rows: free a caller's temporary lift
    raw = run_algorithm(reduced, internal_epsilon(eps), algo, seed=seed, max_seconds=max_seconds)
    return rescaled(replace(raw, reduced_rank=reduced.rank), algo)

"""Sparsify sums of positive semidefinite matrices.

Given B_1, ..., B_m with B = sum(B_i) and eps in (0, 1), the solvers here
find a nonnegative vector y of small support with
B <= sum(y_i B_i) <= (1 + eps) B, via five interchangeable algorithms:
a deterministic barrier-potential method (``bss``), two matrix
multiplicative weights variants (``mmwum-wf``, ``mmwum-block``),
trace-weighted sampling (``aw-sample``) and its pessimistic-estimator
derandomization (``pe``).
"""

from .bss import BssParams, bss_sparsify, phi_lower, phi_upper
from .linalg import (
    PsdCollection,
    ReducedInstance,
    SandwichCertificate,
    SparsifierResult,
    eigh,
    is_psd,
    reduce_to_identity,
    sym_exp,
    symmetrize,
    verify_sandwich,
)
from .mmwum_block import BlockParams, block_sparsify, oracle_width_fixture
from .mmwum_wf import WfParams, check_potential_equivalence, wf_sparsify
from .sampling import PeParams, aw_sample, pe_sparsify
from .solve import ALGORITHMS, run_algorithm, sparsify_sum

__all__ = [
    "ALGORITHMS",
    "BlockParams",
    "BssParams",
    "PeParams",
    "PsdCollection",
    "ReducedInstance",
    "SandwichCertificate",
    "SparsifierResult",
    "WfParams",
    "aw_sample",
    "block_sparsify",
    "bss_sparsify",
    "check_potential_equivalence",
    "eigh",
    "is_psd",
    "oracle_width_fixture",
    "pe_sparsify",
    "phi_lower",
    "phi_upper",
    "reduce_to_identity",
    "run_algorithm",
    "sparsify_sum",
    "sym_exp",
    "symmetrize",
    "verify_sandwich",
    "wf_sparsify",
]

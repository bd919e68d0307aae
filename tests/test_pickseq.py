"""Pick sequences of the solvers under their kernels and a reference arithmetic.

The dense reference scores candidates the way the scanning solvers did
before the factored kernel, and the two-``eigh`` reference scores ``pe``
candidates from its two exponent sums, each decomposed and exponentiated
on its own, where the kernel decomposes P once.  So these tests pin down
which output files the kernels leave unchanged and why they may change
the others.  The reference loops of
``bss``, ``mmwum-wf`` and ``mmwum-block`` pin down that the shared driver
``scan.drive`` changes no bit of theirs.
"""

import numpy as np
import pytest

from psdsparsify.applications import edge_collection
from psdsparsify.instances import complete_graph, identity_decomposition, random_psd_collection
from psdsparsify.linalg import certificate_for, reduce_to_identity
from psdsparsify.mmwum_wf import WfParams
from psdsparsify.sampling import pe_sparsify
from psdsparsify.solve import internal_epsilon

from pickseq import (
    PARAMS,
    _pe_criterion,
    REFERENCES,
    compare_pe_picks,
    compare_picks,
    compare_with_reference,
    pe_lockstep_moves,
)

INSTANCES = {
    **{f"random-{s}": (lambda s=s: random_psd_collection(6, 40, seed=s)) for s in range(3)},
    "k5": lambda: edge_collection(complete_graph(5)),
}


@pytest.mark.parametrize("seed", range(3))
def test_bss_picks_and_weights_match_the_dense_reference(seed):
    reduced = reduce_to_identity(random_psd_collection(6, 40, seed=seed))
    report = compare_picks("bss", reduced, 0.5)
    assert report.first_difference is None, (report.picks, report.score_gap)
    assert len(report.kernel) == len(report.reference) > 0
    assert report.alpha_rel_max <= 1e-12
    got, want = report.weights
    assert np.array_equal(got > 0.0, want > 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_bss_on_k5_moves_a_pick_only_at_an_exact_tie():
    # K5 is edge-transitive, so at A = 0 all ten gaps L - U are equal and
    # rounding alone picks among them, differently under the two kernels.
    reduced = reduce_to_identity(edge_collection(complete_graph(5)))
    report = compare_picks("bss", reduced, 0.5)
    scores_u, scores_l = report.kernel[0].args[:2]
    np.testing.assert_allclose(scores_l - scores_u, (scores_l - scores_u)[0], rtol=1e-12)
    if report.first_difference is not None:
        assert report.score_gap <= 1e-12
        assert report.alpha_rel_max <= 1e-12
    got, want = report.weights
    assert np.count_nonzero(got) == np.count_nonzero(want)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_first_wf_and_block_picks_are_exact_ties(name):
    # At A = 0 both densities are I/r, so every slack is
    # tr(C_j) (1/delta_L - r - 1/delta_U) / r = 0 and every width is r:
    # rounding alone picks the first index, under either kernel.
    reduced = reduce_to_identity(INSTANCES[name]())
    r = reduced.rank
    params = WfParams.from_epsilon(0.5, r)
    wf = compare_picks("mmwum-wf", reduced, 0.5, max_steps=1)
    scores_u, scores_l = wf.kernel[0].args[:2]
    slack = scores_l / params.delta_L - reduced.traces - scores_u / params.delta_U
    size = scores_l / params.delta_L + reduced.traces + scores_u / params.delta_U
    assert np.all(np.abs(slack) <= 1e-12 * size)

    block = compare_picks("mmwum-block", reduced, 0.5, max_steps=1)
    scores_1, _, tr_x1 = block.kernel[0].args[:3]
    widths = reduced.traces / (scores_1 / tr_x1)
    np.testing.assert_allclose(widths, r, rtol=1e-12)
    for report in (wf, block):
        if report.first_difference is not None:
            assert report.score_gap <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_pe_picks_match_the_two_eigh_reference(seed):
    reduced = reduce_to_identity(random_psd_collection(5, 25, seed=seed))
    report = compare_pe_picks(reduced, 0.45)
    assert report.first_difference is None, (report.picks, report.score_gap)
    assert len(report.kernel) == len(report.reference) > 0
    assert pe_lockstep_moves(reduced, 0.45, pe_sparsify(reduced, 0.45).picks) == []
    got, want = report.weights
    assert np.array_equal(got, want)


def test_pe_on_k5_moves_picks_only_at_ties():
    # K5 is edge-transitive: at P = 0 all ten values are equal in exact
    # arithmetic, and later steps keep tying, so the tie rule picks, not
    # rounding, under either arithmetic.
    reduced = reduce_to_identity(edge_collection(complete_graph(5)))
    eps = internal_epsilon(0.45)
    report = compare_pe_picks(reduced, eps)
    first_values, size = _pe_criterion(*report.kernel[0].args)
    assert np.all(np.abs(first_values - first_values[0]) <= 1e-12 * size)
    assert report.kernel[0].j == report.reference[0].j == 0
    if report.first_difference is not None:
        assert report.score_gap <= 1e-12
    for step, _, _, gap in pe_lockstep_moves(reduced, eps, pe_sparsify(reduced, eps).picks):
        assert gap <= 1e-12, step
    got, want = report.weights
    assert np.count_nonzero(got) == np.count_nonzero(want)
    for weights in (got, want):
        assert certificate_for(reduced, weights).within_window(1.0 - eps, 1.0 + eps)


REFERENCE_INSTANCES = {
    **INSTANCES,
    "identity4": lambda: identity_decomposition(4),
}


@pytest.mark.parametrize("eps", [0.45, 0.5])
@pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
@pytest.mark.parametrize("solver", sorted(REFERENCES))
def test_driver_matches_the_reference_loop_bit_for_bit(solver, name, eps):
    reduced = reduce_to_identity(REFERENCE_INSTANCES[name]())
    run = compare_with_reference(solver, reduced, eps)
    steps = PARAMS[solver].from_epsilon(eps, reduced.rank).T
    assert len(run.picks) == len(run.plain.picks) == len(run.reference_history) == steps > 0
    assert run.picks == run.result.picks == run.plain.picks == run.reference_history
    weights = run.result.weights.tobytes()
    assert run.plain.weights.tobytes() == weights
    assert run.reference_result.weights.tobytes() == weights
    assert run.plain.certificate == run.result.certificate
    assert run.reference_result.certificate == run.result.certificate

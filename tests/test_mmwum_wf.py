"""Width-free multiplicative weights: oracle, potentials, equivalence."""

import math

import numpy as np
import pytest

from psdsparsify import mmwum_wf
from psdsparsify.errors import ExpOverflow
from psdsparsify.linalg import PsdCollection, eigh, reduce_to_identity, symmetrize
from psdsparsify.mmwum_wf import (
    WfParams,
    _wf_pick,
    check_potential_equivalence,
    psi_lower,
    psi_upper,
    wf_sparsify,
)

from conftest import random_psd, scores_of
from pickseq import assert_wf_chain, replay


def wf_oracle(x_u, x_l, reduced, params):
    """The solver's pick on the scores of the densities X_U and X_L."""
    return _wf_pick(scores_of(reduced, x_u)[0], scores_of(reduced, x_l)[0], reduced, params)


def scalar_params():
    # hand-picked schedule satisfying 1/delta_L - n = 1/delta_U at n = 1
    return WfParams(eps=0.5, n=1, eta=0.25, delta_U=1.0, delta_L=0.5, T=1, gamma=1.0)


class TestParams:
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_delta_identity(self, eps, n):
        p = WfParams.from_epsilon(eps, n)
        assert 1.0 / p.delta_L - n == pytest.approx(1.0 / p.delta_U, rel=1e-9)

    def test_schedule_r2(self):
        p = WfParams.from_epsilon(0.5, 2)
        assert p.eta == 0.25
        assert p.delta_U == 0.125
        assert p.delta_L == pytest.approx(0.25 / (1.25 * 2.0), rel=1e-15)
        assert p.T == 23
        assert p.gamma == 0.125

    def test_minimum_one_iteration(self):
        assert WfParams.from_epsilon(0.5, 1).T == 1

    def test_rejects_imbalanced(self):
        with pytest.raises(ValueError):
            WfParams(eps=0.5, n=2, eta=0.25, delta_U=1.0, delta_L=0.5, T=1, gamma=1.0)


class TestOracle:
    def test_scalar_instance(self):
        red = reduce_to_identity(PsdCollection.from_matrices([np.array([[1.0]])]))
        one = np.array([[1.0]])
        j, alpha = wf_oracle(one, one, red, scalar_params())
        assert j == 0
        assert alpha == pytest.approx(math.log(2.0), rel=1e-12)

    def test_tie_break_on_symmetric_instance(self):
        n = 4
        mats = [np.diag((np.arange(n) == i).astype(float)) for i in range(n)]
        red = reduce_to_identity(PsdCollection.from_matrices(mats))
        params = WfParams.from_epsilon(0.5, n)
        x = np.eye(n) / n
        j, _ = wf_oracle(x, x, red, params)
        assert j == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_returned_pair_satisfies_both_inequalities(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 5, 17
        coll = PsdCollection.from_matrices(
            [random_psd(rng, n, rank=int(rng.integers(1, 4))) for _ in range(m)],
            validate=False,
        )
        red = reduce_to_identity(coll)
        params = WfParams.from_epsilon(0.4, red.rank)
        a = random_psd(rng, red.rank, rank=2) * 0.1
        spec = eigh(a)
        q = spec.eigenvectors
        ex_u = np.exp(params.gamma * spec.eigenvalues)
        ex_l = np.exp(-params.gamma * spec.eigenvalues)
        coeffs = np.column_stack((ex_u / ex_u.sum(), ex_l / ex_l.sum()))
        x_u = symmetrize((q * coeffs[:, 0]) @ q.T)
        x_l = symmetrize((q * coeffs[:, 1]) @ q.T)
        scores = red.scores_in_basis(q, coeffs)
        j, alpha = _wf_pick(scores[:, 0], scores[:, 1], red, params)
        c = red.member(j)
        tr = float(np.trace(c))
        growth = (math.exp(params.gamma * alpha * tr) - 1.0) / tr
        shrink = (1.0 - math.exp(-params.gamma * alpha * tr)) / tr
        # the growth inequality is pinned with equality by the alpha choice
        assert growth * float(np.sum(x_u * c)) == pytest.approx(params.delta_U, rel=1e-9)
        assert shrink * float(np.sum(x_l * c)) >= params.delta_L * (1 - 1e-9)


class TestPsi:
    def test_zero_matrix(self):
        assert psi_upper(np.zeros((3, 3)), 0.0, 0.7) == pytest.approx(3.0)

    def test_scalar_shift(self):
        n = 4
        assert psi_upper(np.zeros((n, n)), math.log(2.0), 1.0) == pytest.approx(n / 2.0)

    def test_lower_at_shift_one(self):
        assert psi_lower(np.zeros((2, 2)), 1.0, 1.0) == pytest.approx(2.0 * math.e)

    def test_overflow(self):
        with pytest.raises(ExpOverflow):
            psi_upper(np.diag([800.0, 0.0]), 0.0, 1.0)


class TestEquivalence:
    def test_zero_step_agrees(self):
        # both formulations reject a zero step identically
        params = WfParams.from_epsilon(0.5, 3)
        assert check_potential_equivalence(np.zeros((3, 3)), np.eye(3), 0.0, 0, params)

    def test_huge_step_agrees_on_reject(self):
        params = WfParams.from_epsilon(0.5, 3)
        a = np.eye(3) * 0.2
        assert check_potential_equivalence(a, np.eye(3), 1e6, 1, params)

    def test_accepted_steps_hold(self, reduced_random):
        params = WfParams.from_epsilon(0.5, reduced_random.rank)
        picks = wf_sparsify(reduced_random, 0.5).picks
        for t, j, alpha, a, _ in replay(reduced_random, picks[:40]):
            x = reduced_random.member(j)
            assert check_potential_equivalence(a, x, alpha, t - 1, params)


class TestSparsify:
    def test_identity_pair(self, reduced_pair):
        res = wf_sparsify(reduced_pair, 0.5)
        cert = res.certificate
        assert cert.support_size <= 23
        assert cert.lambda_min >= 0.5 - 1e-6
        assert cert.lambda_max <= 1.5 + 1e-6

    def test_single_matrix(self):
        red = reduce_to_identity(PsdCollection.from_matrices([np.eye(3)]))
        res = wf_sparsify(red, 0.5)
        assert res.support.tolist() == [0]
        cert = res.certificate
        assert 0.5 <= cert.lambda_min == cert.lambda_max <= 1.5

    def test_width_free_upper_bound(self, reduced_random):
        params = WfParams.from_epsilon(0.5, reduced_random.rank)
        res = wf_sparsify(reduced_random, 0.5)
        # rebuild A(T) from the raw picks and compare against the bound
        a = np.zeros((reduced_random.rank, reduced_random.rank))
        for j, alpha in res.picks:
            a = symmetrize(a + alpha * reduced_random.member(j))
        lam_max = float(np.linalg.eigvalsh(a)[-1]) / params.T
        bound = (
            math.log1p(params.delta_U) / params.gamma
            + math.log(reduced_random.rank) / (params.T * params.gamma)
        )
        assert lam_max <= bound * (1 + 1e-9)
        assert res.certificate.lambda_max <= 1.5 + 1e-6

    def test_multiplicative_potential_chain(self, reduced_random):
        params = WfParams.from_epsilon(0.5, reduced_random.rank)
        assert_wf_chain(reduced_random, params, wf_sparsify(reduced_random, 0.5).picks)

    def test_gamma_invariance(self, reduced_random):
        params = WfParams.from_epsilon(0.5, reduced_random.rank)
        res_a = wf_sparsify(reduced_random, 0.5)
        res_b = wf_sparsify(reduced_random, 0.5, gamma=10.0 * params.gamma)
        assert [j for j, _ in res_a.picks] == [j for j, _ in res_b.picks]
        np.testing.assert_allclose(res_a.weights, res_b.weights, rtol=1e-9)
        assert res_a.certificate.lambda_max == pytest.approx(
            res_b.certificate.lambda_max, rel=1e-9
        )

    @pytest.mark.parametrize("history", [False, True], ids=["no-history", "history"])
    def test_one_eigh_per_step(self, reduced_random, eigh_calls, history):
        eigh_calls.clear()
        res = wf_sparsify(reduced_random, 0.5)
        params = WfParams.from_epsilon(0.5, reduced_random.rank)
        # one per step and one for the certificate; the returned picks,
        # one (j, alpha) per step, are recorded with no further eigh
        assert eigh_calls == [(6, 6)] * (params.T + 1)
        if history:
            assert len(res.picks) == params.T

    def test_overflow_guard(self, reduced_pair, monkeypatch):
        # gamma * lambda_max starts at 0 and grows to about 2.9 on this run
        monkeypatch.setattr(mmwum_wf, "EXP_OVERFLOW_LIMIT", 0.5)
        with pytest.raises(ExpOverflow, match="gamma"):
            wf_sparsify(reduced_pair, 0.5)

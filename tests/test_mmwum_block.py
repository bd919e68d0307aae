"""Two-block MMWUM: oracle conditions, full runs, width lower bound."""

import math

import numpy as np
import pytest

from psdsparsify import mmwum_block
from psdsparsify.errors import ExpOverflow
from psdsparsify.linalg import PsdCollection, reduce_to_identity
from psdsparsify.mmwum_block import (
    BlockParams,
    _block_pick,
    block_sparsify,
    oracle_width_fixture,
)

from conftest import random_psd, scores_of


def block_oracle(x1, x2, reduced, eta):
    """The solver's pick on the scores and traces of the weights X1 and X2."""
    (s1, tr_x1), (s2, tr_x2) = scores_of(reduced, x1), scores_of(reduced, x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _block_pick(s1, s2, tr_x1, tr_x2, reduced, eta)


class TestParams:
    def test_schedule_r10(self):
        p = BlockParams.from_epsilon(0.5, 10)
        assert p.eta == 0.0625
        assert p.beta == 0.125
        assert p.rho == pytest.approx(170.0)
        # ceil(2 * 171 * ln 10 / 0.0625) evaluated independently
        assert p.T == math.ceil(2 * 171 * math.log(10) / 0.0625) == 12600

    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("n", [2, 6, 17])
    def test_error_bound_below_eps(self, eps, n):
        p = BlockParams.from_epsilon(eps, n)
        assert p.error_bound() <= eps
        # exact (unceiled) budget gives 7eps/8 + eps^2/32
        exact_t = 2.0 * (p.rho + p.ell) * math.log(n) / (p.beta * eps)
        exact = p.beta * p.ell + (p.rho + p.ell) * math.log(n) / (exact_t * p.beta) + (
            1.0 + p.beta
        ) * p.eta
        assert exact == pytest.approx(7.0 * eps / 8.0 + eps**2 / 32.0, rel=1e-12)

    def test_minimum_one_iteration(self):
        assert BlockParams.from_epsilon(0.5, 1).T == 1


class TestOracle:
    def test_coordinate_projectors(self):
        mats = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        red = reduce_to_identity(PsdCollection.from_matrices(mats))
        j, alpha = block_oracle(np.eye(2), np.eye(2), red, eta=1.0)
        assert j == 0
        assert alpha == pytest.approx(2.0)

    def test_single_identity(self):
        red = reduce_to_identity(PsdCollection.from_matrices([np.eye(3)]))
        j, alpha = block_oracle(np.eye(3), np.eye(3), red, eta=0.5)
        assert j == 0
        assert alpha == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_width_bound_always_met(self, seed):
        rng = np.random.default_rng(seed)
        coll = PsdCollection.from_matrices(
            [random_psd(rng, 4, rank=int(rng.integers(1, 4))) for _ in range(12)],
            validate=False,
        )
        red = reduce_to_identity(coll)
        eta = 0.1
        x1 = random_psd(rng, red.rank) + 0.5 * np.eye(red.rank)
        x2 = random_psd(rng, red.rank) + 0.5 * np.eye(red.rank)
        j, alpha = block_oracle(x1, x2, red, eta)
        rho = (1.0 + eta) * red.rank / eta
        assert alpha * float(np.trace(red.member(j))) <= rho * (1 + 1e-12)
        # first condition holds with equality at alpha = 1/p_j
        p_j = float(np.sum(x1 * red.member(j))) / float(np.trace(x1))
        assert alpha * p_j * float(np.trace(x1)) == pytest.approx(
            float(np.trace(x1)), rel=1e-9
        )
        assert float(np.sum(x2 * red.member(j))) * alpha <= (1.0 + eta) * float(
            np.trace(x2)
        ) * (1 + 1e-12)


class TestSparsify:
    def test_identity_pair(self, reduced_pair):
        history = []
        res = block_sparsify(reduced_pair, 0.5, history=history)
        cert = res.certificate
        assert 0.5 - 1e-6 <= cert.lambda_min <= cert.lambda_max <= 1.5 + 1e-6
        params = BlockParams.from_epsilon(0.5, 2)
        assert cert.support_size <= params.T
        for j, alpha in history:
            assert alpha * reduced_pair.traces[j] <= params.rho * (1 + 1e-12)

    def test_single_matrix(self):
        red = reduce_to_identity(PsdCollection.from_matrices([np.eye(2)]))
        res = block_sparsify(red, 0.5)
        cert = res.certificate
        assert 0.5 <= cert.lambda_min <= cert.lambda_max <= 1.5

    def test_spectrum_hypothesis_and_conclusion(self, reduced_random):
        params = BlockParams.from_epsilon(0.5, reduced_random.rank)
        history = []
        res = block_sparsify(reduced_random, 0.5, history=history)
        for j, alpha in history:
            step = alpha * reduced_random.member(j)
            w = np.linalg.eigvalsh(step - np.eye(reduced_random.rank))
            assert w[0] >= -params.ell - 1e-12
            assert w[-1] <= params.rho + 1e-12
        err = params.error_bound()
        cert = res.certificate
        assert cert.lambda_min >= 1.0 - err - 1e-9
        assert cert.lambda_max <= 1.0 + err + 1e-9

    @pytest.mark.parametrize("history", [None, []], ids=["no-history", "history"])
    def test_one_eigh_per_iteration(self, reduced_random, eigh_calls, history):
        eigh_calls.clear()
        block_sparsify(reduced_random, 0.5, history=history)
        params = BlockParams.from_epsilon(0.5, reduced_random.rank)
        # one per step and one for the certificate
        assert eigh_calls == [(6, 6)] * (params.T + 1)

    def test_overflow_guard_sees_the_negated_block(self, reduced_pair, monkeypatch):
        # the exponents -beta/(ell+rho) s are never positive, so only block
        # 2's exponents +beta/(ell+rho) s can cross the limit
        monkeypatch.setattr(mmwum_block, "EXP_OVERFLOW_LIMIT", 0.5)
        with pytest.raises(ExpOverflow):
            block_sparsify(reduced_pair, 0.5)


class TestWidthFixture:
    def test_construction_values(self):
        fix = oracle_width_fixture(1, 0.1)
        np.testing.assert_allclose(np.diag(fix.x1), [1.0, 0.001, 0.3], atol=1e-15)
        np.testing.assert_allclose(fix.x2, np.linalg.inv(fix.x1), rtol=1e-12)
        assert fix.lower_bound == pytest.approx((1 - 0.1) * 3 / (9 * 0.1))
        assert fix.lower_bound == pytest.approx(3.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("eta", [0.05, 0.1])
    def test_members_sum_to_identity(self, k, eta):
        fix = oracle_width_fixture(k, eta)
        total = fix.collection.total()
        assert np.max(np.abs(total - np.eye(3 * k))) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("eta", [0.05, 0.06, 0.07])
    def test_only_tail_type_is_feasible(self, k, eta):
        fix = oracle_width_fixture(k, eta)
        tr_x1 = float(np.trace(fix.x1))
        tr_x2 = float(np.trace(fix.x2))
        for idx, b in enumerate(fix.collection.matrices):
            tr_b = float(np.trace(b))
            # closed-form window for 1/alpha from the first two conditions
            inv_alpha_min = float(np.sum(fix.x2 * b)) / ((1.0 + eta) * tr_x2)
            inv_alpha_max = float(np.sum(fix.x1 * b)) / ((1.0 - eta) * tr_x1)
            if fix.matrix_type(idx) in (1, 2):
                assert inv_alpha_min > inv_alpha_max
            else:
                assert inv_alpha_min <= inv_alpha_max
                # any feasible alpha spends at least the lower-bound width
                assert tr_b / inv_alpha_max >= fix.lower_bound * (1 - 1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_alpha_grid_confirms_window(self, k):
        eta = 0.05
        fix = oracle_width_fixture(k, eta)
        tr_x1 = float(np.trace(fix.x1))
        tr_x2 = float(np.trace(fix.x2))
        rho_grid = np.linspace(0.01, 4.0 * fix.lower_bound, 400)
        for idx, b in enumerate(fix.collection.matrices):
            tr_b = float(np.trace(b))
            s1 = float(np.sum(fix.x1 * b))
            s2 = float(np.sum(fix.x2 * b))
            for alpha in rho_grid:
                ok = (
                    alpha * s1 >= (1.0 - eta) * tr_x1
                    and alpha * s2 <= (1.0 + eta) * tr_x2
                )
                if not ok:
                    continue
                assert fix.matrix_type(idx) == 3
                assert alpha * tr_b >= fix.lower_bound * (1 - 1e-12)

    def test_exclusion_regime_boundary(self):
        # With X1 = Diag(1, a, z), a = eta^3, z = 3 eta, a rotated pair is
        # excluded iff (1-eta)(1+a+z) > (1+eta)(1+a+a/z), i.e. iff
        # eta (1 - 3 eta) - 2 eta a - (1+eta) eta^2/3 > 0, which holds on the
        # whole validated range (0, 0.2], its right end included.
        def excluded(k, eta):
            fix = oracle_width_fixture(k, eta)
            tr_x1 = float(np.trace(fix.x1))
            tr_x2 = float(np.trace(fix.x2))
            return all(
                float(np.sum(fix.x2 * b)) / ((1.0 + eta) * tr_x2)
                > float(np.sum(fix.x1 * b)) / ((1.0 - eta) * tr_x1)
                for idx, b in enumerate(fix.collection.matrices)
                if fix.matrix_type(idx) in (1, 2)
            )

        grid = np.linspace(0.0, 0.2, 201)[1:]
        assert grid[-1] == 0.2
        for k in (1, 2):
            for eta in grid:
                assert excluded(k, float(eta)), (k, eta)

"""Barrier-potential sparsifier: potentials, shift bounds, and full runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdsparsify import scan
from psdsparsify.bss import (
    BssParams,
    _Barriers,
    _lower_coefficients,
    _upper_coefficients,
    bss_sparsify,
    phi_lower,
    phi_upper,
)
from psdsparsify.errors import BarrierViolated, PotentialTooLarge, StepNotFound
from psdsparsify.linalg import PsdCollection, eigh, reduce_to_identity

from conftest import hand_reduced, random_psd
from pickseq import assert_bss_invariants


def _scores(a, x, coefficients):
    """<X, Q diag(c) Q^T> for A = Q diag(w) Q^T and c = coefficients(w),
    scored by ``scores_in_basis`` on a one-member instance."""
    member = hand_reduced([x])
    spec = eigh(a)
    return float(member.scores_in_basis(spec.eigenvectors, coefficients(spec.eigenvalues))[0])


def upper_shift_bound(a, x, u, delta_U):
    """U_A(X), as the solver scores it: any 1/alpha >= U_A(X) keeps lambda_max
    below the raised barrier and does not increase the upper potential."""
    return _scores(a, x, lambda w: _upper_coefficients(w, u, delta_U))


def lower_shift_bound(a, x, ell, delta_L):
    """L_A(X), as the solver scores it: any 0 < 1/alpha <= L_A(X) lifts
    lambda_min past the raised barrier without increasing the lower potential."""
    return _scores(a, x, lambda w: _lower_coefficients(w, ell, delta_L))


def bss_step(a, t, reduced, params):
    """The solver's (j, alpha) at A after t steps."""
    return scan.step(reduced, _Barriers(params, reduced), a, t, np.empty((reduced.rank, 2)))


class TestParams:
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 10, 31])
    def test_balance_identity(self, eps, n):
        p = BssParams.from_epsilon(eps, n)
        lhs = 1.0 / p.delta_U + p.eps_U
        rhs = 1.0 / p.delta_L - p.eps_L
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert p.T >= 1

    def test_schedule_values(self):
        p = BssParams.from_epsilon(0.5, 2)
        assert p.delta_L == 1.0
        assert p.eps_L == 0.25
        assert p.ell_0 == -8.0
        assert p.delta_U == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert p.eps_U == pytest.approx(0.15, rel=1e-12)
        assert p.u_0 == pytest.approx(2.0 / 0.15, rel=1e-12)
        assert p.T == 32

    def test_initial_potentials_hit_the_budgets(self):
        for eps, n in [(0.3, 5), (0.5, 11)]:
            p = BssParams.from_epsilon(eps, n)
            zero = np.zeros((n, n))
            assert phi_upper(zero, p.u_0) == pytest.approx(p.eps_U, rel=1e-9)
            assert phi_lower(zero, p.ell_0) == pytest.approx(p.eps_L, rel=1e-9)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            BssParams.from_epsilon(1.0, 3)


class TestPotentials:
    def test_phi_upper_zero_matrix(self):
        assert phi_upper(np.zeros((2, 2)), 2.0) == pytest.approx(1.0)
        assert phi_upper(np.zeros((2, 2)), 3.0) == pytest.approx(2.0 / 3.0)

    def test_phi_upper_diagonal(self):
        assert phi_upper(np.diag([1.0, 2.0]), 4.0) == pytest.approx(5.0 / 6.0)

    def test_phi_upper_barrier(self):
        with pytest.raises(BarrierViolated):
            phi_upper(np.diag([1.0, 2.0]), 2.0)

    def test_phi_lower_values(self):
        assert phi_lower(2.0 * np.eye(2), 0.0) == pytest.approx(1.0)
        assert phi_lower(np.eye(3), -1.0) == pytest.approx(1.5)
        assert phi_lower(np.diag([2.0, 3.0]), 1.0) == pytest.approx(1.5)

    def test_phi_lower_barrier(self):
        with pytest.raises(BarrierViolated):
            phi_lower(np.eye(2), 1.0)


class TestShiftBounds:
    def test_upper_identity_direction(self):
        # M = 3I, scalar arithmetic: (2/9)/(1/3) + 2/3 = 4/3
        got = upper_shift_bound(np.zeros((2, 2)), np.eye(2), u=2.0, delta_U=1.0)
        assert got == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_upper_scalar_case(self):
        got = upper_shift_bound(np.zeros((1, 1)), np.array([[1.0]]), u=1.0, delta_U=1.0)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_upper_linear_in_direction(self):
        rng = np.random.default_rng(3)
        x = random_psd(rng, 3)
        a = random_psd(rng, 3, rank=2)
        u = float(np.linalg.eigvalsh(a)[-1]) + 1.0
        one = upper_shift_bound(a, x, u, 0.7)
        five = upper_shift_bound(a, 5.0 * x, u, 0.7)
        assert five == pytest.approx(5.0 * one, rel=1e-12)

    def test_lower_identity_direction(self):
        # N = 1.5I: (8/9)/(1/3) - 4/3 = 4/3
        got = lower_shift_bound(2.0 * np.eye(2), np.eye(2), ell=0.0, delta_L=0.5)
        assert got == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_lower_signals_no_step(self):
        # N = I: 2/1 - 2 = 0, no admissible step size for this direction
        got = lower_shift_bound(2.0 * np.eye(2), np.eye(2), ell=0.0, delta_L=1.0)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_lower_linear_in_direction(self):
        rng = np.random.default_rng(4)
        x = random_psd(rng, 3)
        a = 3.0 * np.eye(3) + random_psd(rng, 3, rank=1)
        one = lower_shift_bound(a, x, 0.0, 0.5)
        three = lower_shift_bound(a, 3.0 * x, 0.0, 0.5)
        assert three == pytest.approx(3.0 * one, rel=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_upper_guarantee(self, seed):
        # taking 1/alpha = U_A(X) keeps the barrier and the potential
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a = random_psd(rng, n)
        x = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        if not np.any(x):
            return
        u = float(np.linalg.eigvalsh(a)[-1]) + float(rng.uniform(0.1, 2.0))
        delta = float(rng.uniform(0.1, 2.0))
        bound = upper_shift_bound(a, x, u, delta)
        alpha = 1.0 / bound
        shifted = a + alpha * x
        assert float(np.linalg.eigvalsh(shifted)[-1]) < u + delta
        assert phi_upper(shifted, u + delta) <= phi_upper(a, u) * (1 + 1e-9)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_lower_guarantee(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a = random_psd(rng, n) + np.eye(n) * float(rng.uniform(0.5, 2.0))
        x = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        lam_min = float(np.linalg.eigvalsh(a)[0])
        ell = lam_min - float(rng.uniform(0.1, 1.0))
        # keep the precondition phi <= 1/delta satisfiable
        delta = min(0.9 / phi_lower(a, ell), lam_min - ell) * 0.9
        bound = lower_shift_bound(a, x, ell, delta)
        if bound <= 0.0:
            return
        alpha = 1.0 / bound
        shifted = a + alpha * x
        assert float(np.linalg.eigvalsh(shifted)[0]) > ell + delta
        assert phi_lower(shifted, ell + delta) <= phi_lower(a, ell) * (1 + 1e-9)


class TestStep:
    def test_step_is_sandwiched(self, reduced_pair):
        params = BssParams.from_epsilon(0.5, reduced_pair.rank)
        a = np.zeros((2, 2))
        j, alpha = bss_step(a, 0, reduced_pair, params)
        u = params.upper_barrier(0)
        ell = params.lower_barrier(0)
        upper = upper_shift_bound(a, reduced_pair.member(j), u, params.delta_U)
        lower = lower_shift_bound(a, reduced_pair.member(j), ell, params.delta_L)
        assert lower * (1 + 1e-12) >= 1.0 / alpha >= upper * (1 - 1e-12)

    def test_single_candidate(self):
        red = reduce_to_identity(PsdCollection.from_matrices([np.array([[1.0]])]))
        params = BssParams.from_epsilon(0.5, 1)
        j, alpha = bss_step(np.zeros((1, 1)), 0, red, params)
        assert j == 0
        assert alpha > 0

    def test_tie_break_lowest_index(self):
        m = 4
        mats = [np.eye(3) / m for _ in range(m)]
        red = reduce_to_identity(PsdCollection.from_matrices(mats))
        params = BssParams.from_epsilon(0.5, 3)
        j, _ = bss_step(np.zeros((3, 3)), 0, red, params)
        assert j == 0

    @pytest.mark.parametrize("history", [None, []], ids=["no-history", "history"])
    def test_one_eigh_per_step(self, reduced_random, eigh_calls, history):
        eigh_calls.clear()
        params = BssParams.from_epsilon(0.5, reduced_random.rank)
        bss_step(np.zeros((6, 6)), 0, reduced_random, params)
        assert eigh_calls == [(6, 6)]
        eigh_calls.clear()
        bss_sparsify(reduced_random, 0.5, history=history)
        # one per step and one for the certificate
        assert eigh_calls == [(6, 6)] * (params.T + 1)

    # pair instance at eps 0.5: u_0 = 40/3, ell_0 = -8, delta_L = 1
    @pytest.mark.parametrize(
        "diagonal,error,message",
        [
            ([-9.0, 14.0], BarrierViolated, "u = "),
            ([-9.0, 1.0], BarrierViolated, "ell = "),
            ([-7.5, 1.0], PotentialTooLarge, "phi_lower"),
            ([13.3, 13.3], StepNotFound, "no candidate"),
        ],
    )
    def test_errors_keep_their_order(self, reduced_pair, diagonal, error, message):
        params = BssParams.from_epsilon(0.5, 2)
        with pytest.raises(error, match=message):
            bss_step(np.diag(diagonal), 0, reduced_pair, params)


class TestSparsify:
    def test_identity_pair(self, reduced_pair):
        res = bss_sparsify(reduced_pair, 0.5)
        cert = res.certificate
        assert cert.lambda_min >= 1.0 - 1e-7
        assert cert.lambda_max / cert.lambda_min <= (2.5 / 1.5) ** 2 + 1e-6
        assert cert.support_size <= 32

    def test_single_matrix(self):
        red = reduce_to_identity(PsdCollection.from_matrices([np.eye(3)]))
        res = bss_sparsify(red, 0.5)
        assert res.support.tolist() == [0]
        assert res.certificate.epsilon_achieved == pytest.approx(0.0, abs=1e-12)

    def test_random_collection_passes_relaxed_window(self):
        rng = np.random.default_rng(11)
        mats = [random_psd(rng, 10, rank=1) for _ in range(120)] + [
            random_psd(rng, 10, rank=3) for _ in range(80)
        ]
        coll = PsdCollection.from_matrices(mats, validate=False)
        red = reduce_to_identity(coll)
        res = bss_sparsify(red, 0.5)
        cert = res.certificate
        assert cert.lambda_min >= 1.0 - 1e-7
        assert cert.lambda_max <= (2.5 / 1.5) ** 2 + 1e-6
        assert cert.support_size <= int(np.ceil(4 * 10 / 0.25))

    def test_monotone_potentials_and_barriers(self, reduced_random):
        history = []
        bss_sparsify(reduced_random, 0.5, history=history)
        assert_bss_invariants(reduced_random, 0.5, history)

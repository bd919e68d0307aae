"""Trace-weighted sampling and its pessimistic-estimator derandomization."""

import math

import numpy as np
import pytest

from psdsparsify import sampling
from psdsparsify.errors import InvalidMatrix, RankTooSmall, TimeBudgetExceeded, TNotLargeEnough
from psdsparsify.applications import (
    cost_lifted_collection,
    family_lifted_collection,
    hyperedge_collection,
)
from psdsparsify.instances import (
    complete_graph,
    identity_decomposition,
    random_psd_collection,
    random_uniform_hypergraph,
)
from psdsparsify.linalg import PsdCollection, reduce_to_identity, symmetrize
from psdsparsify.solve import sparsify_sum
from psdsparsify.sampling import (
    SamplingPlan,
    aw_iteration_count,
    aw_sample,
    pe_exponents,
    pe_greedy_step,
    pe_iteration_count,
    pe_params,
    pe_sparsify,
)

from conftest import whitened_members


@pytest.fixture
def reduced_identity_10():
    return reduce_to_identity(identity_decomposition(10))


class TestPlan:
    def test_iteration_budget_r10(self, reduced_identity_10):
        plan = SamplingPlan.from_instance(reduced_identity_10, 0.5)
        # (2 ln 2)(ln 10 + 2 ln 2)/(0.25 * 0.1) ~ 204.6 -> next integer
        assert aw_iteration_count(10, 0.5) == 205
        assert plan.t_random == 205
        assert pe_iteration_count(10, 0.5) == 167

    def test_probabilities_sum_to_one(self, reduced_random):
        plan = SamplingPlan.from_instance(reduced_random, 0.3)
        assert abs(float(plan.probabilities.sum()) - 1.0) <= 1e-10
        assert np.all(plan.probabilities >= 0.0)

    def test_rejects_large_eps(self, reduced_random):
        with pytest.raises(ValueError):
            SamplingPlan.from_instance(reduced_random, 0.6)


class TestExponents:
    def test_symmetric_at_half(self):
        t_minus, t_plus = pe_exponents(0.5, 0.5)
        assert t_minus == pytest.approx(math.log(3.0), rel=1e-12)
        assert t_plus == pytest.approx(math.log(3.0), rel=1e-12)

    def test_vanish_as_eps_to_zero(self):
        t_minus, t_plus = pe_exponents(0.25, 1e-9)
        assert abs(t_minus) < 1e-8
        assert abs(t_plus) < 1e-8


class TestAwSample:
    def test_single_identity_is_exact(self):
        red = reduce_to_identity(PsdCollection.from_matrices([np.eye(4)]))
        res = aw_sample(red, 0.4, seed=1)
        np.testing.assert_allclose(res.weights, [1.0])
        assert res.certificate.lambda_min == pytest.approx(1.0, abs=1e-12)
        assert res.certificate.lambda_max == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_given_seed(self, reduced_random):
        a = aw_sample(reduced_random, 0.3, seed=9)
        b = aw_sample(reduced_random, 0.3, seed=9)
        assert np.array_equal(a.weights, b.weights)

    def test_quantized_weights(self, reduced_random):
        eps = 0.3
        res = aw_sample(reduced_random, eps, seed=5)
        plan = SamplingPlan.from_instance(reduced_random, eps)
        traces = reduced_random.traces
        for j in res.support:
            unit = reduced_random.rank / (plan.t_random * traces[j])
            ratio = res.weights[j] / unit
            assert ratio == pytest.approx(round(ratio), rel=1e-12)

    def test_majority_success_over_seeds(self, reduced_identity_10):
        eps = 0.499999999
        wins = 0
        for seed in range(20):
            cert = aw_sample(reduced_identity_10, eps, seed=seed).certificate
            if cert.lambda_min >= 1 - eps and cert.lambda_max <= 1 + eps:
                wins += 1
        assert wins > 10


# collections built as factor rows with more than one row per member
_ROWS_LIFTS = {
    "hyperedge": lambda: hyperedge_collection(random_uniform_hypergraph(6, 8, 3)),
    "family": lambda: family_lifted_collection(
        complete_graph(5), [[(1, 2), (2, 3), (1, 3)], [(3, 4), (4, 5)]]
    )[0],
    "cost": lambda: cost_lifted_collection(complete_graph(5), [np.arange(10.0), np.ones(10)]),
}


def _pe_state(red, eps):
    """The pe state at the textbook budget, or at the suggested one if that fails."""
    try:
        return pe_params(red, eps)
    except TNotLargeEnough as err:
        return pe_params(red, eps, t_total=err.suggested_t)


class TestPeParams:
    def test_initial_value_below_one(self, reduced_random):
        state = pe_params(reduced_random, 0.45)
        assert state.current_value() < 1.0

    def test_budget_failure_carries_suggestion(self, reduced_identity_10):
        with pytest.raises(TNotLargeEnough) as err:
            pe_params(reduced_identity_10, 0.45)
        assert err.value.suggested_t > pe_iteration_count(10, 0.45)
        state = pe_params(reduced_identity_10, 0.45, t_total=err.value.suggested_t)
        assert state.current_value() < 1.0

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_advertised_phi0_rate_small_rank(self, r):
        # the advertised initial bound phi_0 <= r exp(-T eps^2 mu/(2 ln 2))
        # is a per-step rate claim; it holds in this regime but the
        # constant is not valid for all (r, eps), which is exactly what
        # the numerical budget check guards against
        eps = 0.45
        red = reduce_to_identity(identity_decomposition(r))
        try:
            state = pe_params(red, eps)
        except TNotLargeEnough as err:
            state = pe_params(red, eps, t_total=err.suggested_t)
        mu = 1.0 / r
        rate = -(state.t_minus * (1.0 - eps) * mu + state.log_norm_minus)
        assert rate >= eps**2 * mu / (2.0 * math.log(2.0))

    @pytest.mark.parametrize("n,m,seed", [(6, 30, 7), (8, 160, 3)])
    def test_norms_match_the_per_member_exponentials(self, n, m, seed):
        # the reference sums p_j Q exp(s w) Q^T over each dense unit's own
        # eigendecomposition
        coll = random_psd_collection(n, m, seed=seed)
        red = reduce_to_identity(coll)
        state = _pe_state(red, 0.45)
        for s, got in ((-state.t_minus, state.log_norm_minus), (state.t_plus, state.log_norm_plus)):
            mean = np.zeros((red.rank, red.rank))
            members = whitened_members(coll, red)
            for prob, c, tr in zip(state.plan.probabilities, members, red.traces):
                if prob > 0.0:
                    w, q = np.linalg.eigh(c / tr)
                    mean += prob * ((q * np.exp(s * w)) @ q.T)
            want = float(np.linalg.eigvalsh(symmetrize(mean))[-1])
            assert math.exp(got) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", list(_ROWS_LIFTS))
    def test_norms_on_rows_that_are_not_eigen_rows(self, name):
        # whitened clique, cost and section rows are in general not
        # orthogonal, so they are not the eigen-rows of their member; the
        # reference takes each unit's own eigendecomposition
        red = reduce_to_identity(_ROWS_LIFTS[name]())
        state = _pe_state(red, 0.45)
        for s, got in ((-state.t_minus, state.log_norm_minus), (state.t_plus, state.log_norm_plus)):
            mean = np.zeros((red.rank, red.rank))
            for j, prob in enumerate(state.plan.probabilities):
                if prob > 0.0:
                    w, q = np.linalg.eigh(red.member(j) / red.traces[j])
                    mean += prob * ((q * np.exp(s * w)) @ q.T)
            want = float(np.linalg.eigvalsh(symmetrize(mean))[-1])
            assert math.exp(got) == pytest.approx(want, rel=1e-12)


class TestPeGreedy:
    def test_single_identity(self):
        red = reduce_to_identity(PsdCollection.from_matrices([np.eye(3)]))
        res = pe_sparsify(red, 0.4)
        np.testing.assert_allclose(res.weights, [1.0])

    def test_rank_one_raises_a_typed_error(self):
        red = reduce_to_identity(PsdCollection.from_matrices([np.eye(1), 2.0 * np.eye(1)]))
        with pytest.raises(RankTooSmall, match="rank at least 2"):
            pe_sparsify(red, 0.4)

    def test_estimator_decreases(self, reduced_random):
        state = pe_params(reduced_random, 0.45)
        trace = [state.current_value()]
        for _ in range(state.t_total):
            pe_greedy_step(state)
            trace.append(state.current_value())
        for prev, cur in zip(trace, trace[1:]):
            assert cur < prev + 1e-12
        assert trace[-1] < 1.0

    def test_pick_beats_probability_weighted_average(self, reduced_random):
        state = pe_params(reduced_random, 0.45)
        from psdsparsify.linalg import symmetrize

        for _ in range(5):
            values = {}
            for j, (prob, tr) in enumerate(zip(state.plan.probabilities, reduced_random.traces)):
                if prob <= 0.0:
                    continue
                x = reduced_random.member(j) / tr
                p = state.picked_sum
                w_lower = np.linalg.eigvalsh(symmetrize(-state.t_minus * p - state.t_minus * x))
                w_upper = np.linalg.eigvalsh(symmetrize(state.t_plus * p + state.t_plus * x))
                values[j] = float(state._estimate(w_lower, w_upper, state.t + 1))
            average = sum(state.plan.probabilities[j] * v for j, v in values.items())
            before = state.current_value()
            picked = pe_greedy_step(state)
            assert values[picked] <= average * (1 + 1e-12)
            assert average <= before * (1 + 1e-12)

    def test_deterministic_output_passes(self):
        for seed in (0, 1, 2):
            coll = random_psd_collection(5, 25, seed=seed)
            red = reduce_to_identity(coll)
            res_a = pe_sparsify(red, 0.45)
            res_b = pe_sparsify(red, 0.45)
            assert np.array_equal(res_a.weights, res_b.weights)
            cert = res_a.certificate
            assert cert.lambda_min >= 1 - 0.45 - 1e-9
            assert cert.lambda_max <= 1 + 0.45 + 1e-9

    def test_identity_rank_four_passes_deterministically(self):
        eps = 0.45
        red = reduce_to_identity(identity_decomposition(4))
        try:
            res = pe_sparsify(red, eps)
        except TNotLargeEnough as err:
            res = pe_sparsify(red, eps, t_total=err.suggested_t)
        cert = res.certificate
        assert cert.lambda_min >= 1 - eps - 1e-9
        assert cert.lambda_max <= 1 + eps + 1e-9

    def test_quantization_rule_matches_aw(self, reduced_random):
        eps = 0.45
        res = pe_sparsify(reduced_random, eps)
        t_total = pe_iteration_count(reduced_random.rank, eps)
        traces = reduced_random.traces
        for j in res.support:
            unit = reduced_random.rank / (t_total * traces[j])
            ratio = res.weights[j] / unit
            assert ratio == pytest.approx(round(ratio), rel=1e-12)


def _ln_sum_exp_scalar(w):
    top = max(w)
    return top + math.log(sum(math.exp(v - top) for v in w))


def _reference_step(state, reduced):
    """(pick, phi + psi) of one greedy step, one candidate and one eigh at a time."""
    plan, t_total, i = state.plan, state.t_total, state.t + 1
    c_phi = state.t_minus * t_total * (1.0 - plan.eps) * plan.mu
    c_psi = -state.t_plus * t_total * (1.0 + plan.eps) * plan.mu
    best_j, best_val = -1, math.inf
    for j, (prob, tr) in enumerate(zip(plan.probabilities, reduced.traces)):
        if prob <= 0.0:
            continue
        c = reduced.member(j)
        lower = -state.t_minus * state.picked_sum - state.t_minus * (c / tr)
        upper = state.t_plus * state.picked_sum + state.t_plus * (c / tr)
        w_lower = np.linalg.eigh(0.5 * (lower + lower.T))[0].tolist()
        w_upper = np.linalg.eigh(0.5 * (upper + upper.T))[0].tolist()
        ln_phi = c_phi + _ln_sum_exp_scalar(w_lower) + (t_total - i) * state.log_norm_minus
        ln_psi = c_psi + _ln_sum_exp_scalar(w_upper) + (t_total - i) * state.log_norm_plus
        val = math.exp(ln_phi) + math.exp(ln_psi)
        if val < best_val:
            best_j, best_val = j, val
    return best_j, best_val


class TestPeBatchedScoring:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_candidate_reference(self, seed):
        red = reduce_to_identity(random_psd_collection(5, 25, seed=seed))
        state = pe_params(red, 0.45)
        for _ in range(state.t_total):
            ref_pick, ref_val = _reference_step(state, red)
            assert pe_greedy_step(state) == ref_pick
            assert state.current_value() == pytest.approx(ref_val, rel=1e-12, abs=0.0)

    def test_exact_ties_pick_lowest_index(self):
        red = reduce_to_identity(identity_decomposition(4))
        with pytest.raises(TNotLargeEnough) as err:
            pe_params(red, 0.45)
        state = pe_params(red, 0.45, t_total=err.value.suggested_t)
        for _ in range(8):
            pe_greedy_step(state)
        assert state.picks == [0, 1, 2, 3, 0, 1, 2, 3]


class TestPeSpectrumOfPickSums:
    def test_one_eigvalsh_and_no_eigh_per_step(self, reduced_random, monkeypatch):
        state = pe_params(reduced_random, 0.45)
        calls = {"eigvalsh": 0, "eigh": 0}
        # every eigh goes through numpy's, wherever it is called from
        for module, name in ((sampling, "eigvalsh"), (np.linalg, "eigh")):

            def counting(m, name=name, real=getattr(module, name)):
                calls[name] += 1
                return real(m)

            monkeypatch.setattr(module, name, counting)
        pe_greedy_step(state)
        assert calls == {"eigvalsh": 1, "eigh": 0}

    def test_nan_in_the_unit_stack_raises(self, reduced_random):
        state = pe_params(reduced_random, 0.45)
        state.units = state.units.copy()
        state.units[3, 1, 2] = np.nan
        with pytest.raises(InvalidMatrix):
            pe_greedy_step(state)

    def test_exponent_sums_are_multiples_of_the_pick_sum(self, reduced_random):
        state = pe_params(reduced_random, 0.45)
        for _ in range(5):
            pe_greedy_step(state)
        p = state.picked_sum
        assert np.array_equal(p, p.T)
        units = [reduced_random.member(j) / reduced_random.traces[j] for j in state.picks]
        np.testing.assert_allclose(p, sum(units), rtol=0.0, atol=1e-14)


class TestPeDeadline:
    def test_expired_budget_raises(self, reduced_random):
        with pytest.raises(TimeBudgetExceeded):
            pe_sparsify(reduced_random, 0.45, max_seconds=1e-9)

    def test_ample_budget_changes_nothing(self, reduced_random):
        timed = pe_sparsify(reduced_random, 0.45, max_seconds=600.0)
        assert np.array_equal(timed.weights, pe_sparsify(reduced_random, 0.45).weights)

    def test_wrapper_forwards_budget(self):
        coll = random_psd_collection(5, 25, seed=0)
        with pytest.raises(TimeBudgetExceeded):
            sparsify_sum(coll, 0.5, algo="pe", max_seconds=1e-9)

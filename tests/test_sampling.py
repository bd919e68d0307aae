"""Trace-weighted sampling and its pessimistic-estimator derandomization."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from psdsparsify import sampling, scan
from psdsparsify.errors import RankTooSmall, TimeBudgetExceeded
from psdsparsify.applications import (
    cost_lifted_collection,
    edge_collection,
    family_lifted_collection,
    hyperedge_collection,
)
from psdsparsify.instances import (
    complete_graph,
    gnp_graph,
    identity_decomposition,
    random_psd_collection,
    random_uniform_hypergraph,
)
from psdsparsify.linalg import PsdCollection, reduce_to_identity, symmetrize
from psdsparsify.solve import internal_epsilon, sparsify_sum
from psdsparsify.sampling import (
    PE_TIE_RTOL,
    PeParams,
    aw_iteration_count,
    aw_sample,
    pe_exponents,
    pe_iteration_count,
    pe_sparsify,
    trace_probabilities,
)

from conftest import whitened_members
from pickseq import pe_estimator, pe_prefactors, replay


@pytest.fixture
def reduced_identity_10():
    return reduce_to_identity(identity_decomposition(10))


class TestPlan:
    def test_iteration_budget_r10(self, reduced_identity_10):
        # (2 ln 2)(ln 10 + 2 ln 2)/(0.25 * 0.1) ~ 204.6 -> next integer
        assert aw_iteration_count(10, 0.5) == 205
        assert aw_sample(reduced_identity_10, 0.5).t_used == 205
        # ln 20 / D(0.15 || 0.1) ~ 244.9 -> next integer; D(0.05 || 0.1) is larger
        assert pe_iteration_count(10, 0.5) == 245
        assert PeParams.from_epsilon(0.5, 10).T == 245

    def test_probabilities_sum_to_one(self, reduced_random):
        probabilities = trace_probabilities(reduced_random, 0.3)
        assert abs(float(probabilities.sum()) - 1.0) <= 1e-10
        assert np.all(probabilities >= 0.0)

    def test_rejects_large_eps(self, reduced_random):
        with pytest.raises(ValueError):
            trace_probabilities(reduced_random, 0.6)


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
        traces = reduced_random.traces
        for j in res.support:
            unit = reduced_random.rank / (res.t_used * traces[j])
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
    ),
    "cost": lambda: cost_lifted_collection(complete_graph(5), [np.arange(10.0), np.ones(10)]),
}


def _bernoulli_kl(a, mu):
    return a * math.log(a / mu) + (1.0 - a) * math.log((1.0 - a) / (1.0 - mu))


def _linear_bounds(params, reduced, p, i):
    """The bound on phi_{i+1} + psi_{i+1} that picking X_j = C_j / tr(C_j) at
    P after i picks gives, one dense member at a time, in plain floating point.

    Returns the part every member shares, each member's part linear in X_j
    (inf for a member without trace) and the size of that part's two terms.
    """
    w, q = np.linalg.eigh(p)
    e_lower = (q * np.exp(-params.t_lower * w)) @ q.T
    e_upper = (q * np.exp(params.t_upper * w)) @ q.T
    drop, rise, lower, upper = pe_prefactors(params, params.T - i - 1)
    shared = lower * np.trace(e_lower) + upper * np.trace(e_upper)
    linear, size = np.full(len(reduced), np.inf), np.zeros(len(reduced))
    for j, tr in enumerate(reduced.traces):
        if tr > 0.0:
            x = reduced.member(j) / tr
            a, b = drop * lower * np.sum(x * e_lower), rise * upper * np.sum(x * e_upper)
            linear[j], size[j] = b - a, a + b
    return shared, linear, size


def _check_norms(reduced, members, eps=0.45):
    """The estimator's one-step factor 1 + (e^s - 1) mu is the norm of the
    p-mean of the members' linear bounds I + (e^s - 1) X_j, which dominate
    their exponentials e^{s X_j}, each from the member's own eigh."""
    params = PeParams.from_epsilon(eps, reduced.rank)
    r = reduced.rank
    for s in (-params.t_lower, params.t_upper):
        linear, exact = np.zeros((r, r)), np.zeros((r, r))
        for prob, c, tr in zip(trace_probabilities(reduced, eps), members, reduced.traces):
            if prob > 0.0:
                x = c / tr
                w, q = np.linalg.eigh(x)
                exp_x = (q * np.exp(s * w)) @ q.T
                bound = np.eye(r) + math.expm1(s) * x
                assert np.linalg.eigvalsh(symmetrize(bound - exp_x))[0] >= -1e-12
                linear += prob * bound
                exact += prob * exp_x
        norm = 1.0 + math.expm1(s) * params.mu
        np.testing.assert_allclose(linear, norm * np.eye(r), rtol=0.0, atol=1e-12)
        assert np.linalg.eigvalsh(symmetrize(exact))[-1] <= norm * (1.0 + 1e-12)


class TestPeParams:
    def test_initial_value_below_one(self, reduced_random):
        # the budget forces phi_0 + psi_0 < 1 with no retry, also where the
        # textbook budget (2 ln 2) r ln(2r) / eps^2 did not
        for r, eps in [(reduced_random.rank, 0.45), (10, 0.45), (4, 0.45), (2, 0.5), (30, 0.3)]:
            params = PeParams.from_epsilon(eps, r)
            assert pe_estimator(params, np.zeros((r, r)), 0) < 1.0
        assert PeParams.from_epsilon(0.45, 10).T > 2 * math.log(2) * 10 * math.log(20) / 0.45**2

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_advertised_phi0_rate_small_rank(self, r):
        # ln phi falls per step by D((1-eps) mu || mu) at the optimal
        # exponent, which is above the advertised eps^2 mu / (2 ln 2) here
        eps = 0.45
        params = PeParams.from_epsilon(eps, r)
        mu = 1.0 / r
        drop = 1.0 - math.exp(-params.t_lower)
        rate = -(params.t_lower * (1.0 - eps) * mu + math.log(1.0 - drop * mu))
        assert rate == pytest.approx(_bernoulli_kl((1.0 - eps) * mu, mu), rel=1e-9)
        assert rate >= eps**2 * mu / (2.0 * math.log(2.0))

    @pytest.mark.parametrize("n,m,seed", [(6, 30, 7), (8, 160, 3)])
    def test_norms_match_the_per_member_exponentials(self, n, m, seed):
        coll = random_psd_collection(n, m, seed=seed)
        red = reduce_to_identity(coll)
        _check_norms(red, whitened_members(coll, red))

    @pytest.mark.parametrize("name", list(_ROWS_LIFTS))
    def test_norms_on_rows_that_are_not_eigen_rows(self, name):
        # whitened clique, cost and section rows are in general not
        # orthogonal, so they are not the eigen-rows of their member; the
        # check takes each unit's own eigendecomposition
        red = reduce_to_identity(_ROWS_LIFTS[name]())
        _check_norms(red, [red.member(j) for j in range(len(red))])


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
        # phi + psi recomputed from the dense P of every step never rises
        params = PeParams.from_epsilon(0.45, reduced_random.rank)
        picks = pe_sparsify(reduced_random, 0.45).picks
        r = reduced_random.rank
        values = [pe_estimator(params, np.zeros((r, r)), 0)]
        values += [pe_estimator(params, a, t) for t, _, _, _, a in replay(reduced_random, picks)]
        assert len(values) == params.T + 1
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev * (1 + 1e-12)
        assert values[-1] < 1.0

    def test_pick_beats_probability_weighted_average(self, reduced_random):
        # the pick's bound is at most the p-mean of all bounds, which is the
        # current phi + psi, and the bound holds for the value it bounds
        params = PeParams.from_epsilon(0.45, reduced_random.rank)
        probabilities = trace_probabilities(reduced_random, 0.45)
        picks = pe_sparsify(reduced_random, 0.45).picks
        for t, j, _, before, after in replay(reduced_random, picks):
            shared, linear, _ = _linear_bounds(params, reduced_random, before, t - 1)
            live = probabilities > 0.0
            average = shared + float(probabilities[live] @ linear[live])
            assert average == pytest.approx(pe_estimator(params, before, t - 1), rel=1e-10)
            assert shared + linear[j] <= average * (1 + 1e-12)
            assert pe_estimator(params, after, t) <= (shared + linear[j]) * (1 + 1e-12)

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
        res = pe_sparsify(red, eps)
        assert res.t_used == pe_iteration_count(4, eps)
        cert = res.certificate
        assert cert.lambda_min >= 1 - eps - 1e-9
        assert cert.lambda_max <= 1 + eps + 1e-9

    def test_quantization_rule_matches_aw(self, reduced_random):
        eps = 0.45
        res = pe_sparsify(reduced_random, eps)
        t_total = pe_iteration_count(reduced_random.rank, eps)
        assert res.t_used == t_total
        traces = reduced_random.traces
        for j in res.support:
            unit = reduced_random.rank / (t_total * traces[j])
            ratio = res.weights[j] / unit
            assert ratio == pytest.approx(round(ratio), rel=1e-12)


class TestPeBatchedScoring:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_candidate_reference(self, seed):
        # <X_j, C> one dense member at a time, picked under the same tie rule
        red = reduce_to_identity(random_psd_collection(5, 25, seed=seed))
        params = PeParams.from_epsilon(0.45, red.rank)
        picks = pe_sparsify(red, 0.45).picks
        for t, j, alpha, before, _ in replay(red, picks):
            _, linear, size = _linear_bounds(params, red, before, t - 1)
            best = int(np.argmin(linear))
            ref_pick = int(np.argmax(linear <= linear[best] + PE_TIE_RTOL * size[best]))
            assert j == ref_pick
            assert alpha == 1.0 / red.traces[j]

    def test_exact_ties_pick_lowest_index(self):
        picks = pe_sparsify(reduce_to_identity(identity_decomposition(4)), 0.45).picks
        assert [j for j, _ in picks[:8]] == [0, 1, 2, 3, 0, 1, 2, 3]

    @pytest.mark.parametrize(
        "make",
        [lambda: complete_graph(5), lambda: gnp_graph(30, 0.6, seed=1)],
        ids=["k5", "gnp30"],
    )
    def test_first_step_ties_and_takes_the_first_member(self, make, monkeypatch):
        # at P = 0 every value is the same in exact arithmetic; the scores
        # differ by rounding, and the tie rule takes the lowest index
        reduced = reduce_to_identity(edge_collection(make()))
        params = PeParams.from_epsilon(internal_epsilon(0.5), reduced.rank)
        seen, pick = [], sampling._pe_pick

        def recording_pick(scores, reduced):
            seen.append(scores.copy())
            return pick(scores, reduced)

        monkeypatch.setattr(sampling, "_pe_pick", recording_pick)
        r = reduced.rank
        j, alpha = scan.step(reduced, params, np.zeros((r, r)), 0, np.empty((r, 2)))
        (scores,) = seen
        values = scores.sum(axis=1) / reduced.traces
        size = np.abs(scores).sum(axis=1) / reduced.traces
        assert np.all(np.abs(values - values[0]) <= 1e-14 * size)
        assert (j, alpha) == (0, 1.0 / reduced.traces[0])


class TestPeSpectrumOfPickSums:
    def test_one_eigh_and_no_eigvalsh_per_step(self, reduced_random, monkeypatch):
        calls = Counter()
        # every decomposition goes through numpy's, wherever it is called from
        for name in ("eigh", "eigvalsh"):

            def counting(m, name=name, real=getattr(np.linalg, name)):
                calls[name] += 1
                return real(m)

            monkeypatch.setattr(np.linalg, name, counting)
        result = pe_sparsify(reduced_random, 0.45)
        # one eigh of P per step and one of the certificate sum
        assert calls == {"eigh": result.t_used + 1}

    def test_exponent_sums_are_multiples_of_the_pick_sum(self, reduced_random):
        # both score matrices are functions of P alone: its coefficient
        # columns, back in the eigenbasis, are the scaled e^{-t P} and e^{t' P}
        params = PeParams.from_epsilon(0.45, reduced_random.rank)
        picks = pe_sparsify(reduced_random, 0.45).picks
        *_, (_, _, _, _, p) = itertools.islice(replay(reduced_random, picks), 5)
        assert np.array_equal(p, p.T)
        units = [reduced_random.member(j) / reduced_random.traces[j] for j, _ in picks[:5]]
        np.testing.assert_allclose(p, sum(units), rtol=0.0, atol=1e-14)
        w = np.linalg.eigvalsh(p)
        lower, upper = params.coefficients(w, 5)
        drop, rise, scale_lower, scale_upper = pe_prefactors(params, params.T - 6)
        want_lower = -drop * scale_lower * np.exp(-params.t_lower * w)
        want_upper = rise * scale_upper * np.exp(params.t_upper * w)
        np.testing.assert_allclose(lower, want_lower, rtol=1e-12)
        np.testing.assert_allclose(upper, want_upper, rtol=1e-12)


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

"""Acceptance suite: one test per criterion, each printing a verdict line."""

import math
import time

import numpy as np
import pytest

import psdsparsify.applications as apps
from psdsparsify.bss import BssParams, bss_sparsify, phi_lower, phi_upper
from psdsparsify.instances import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    identity_decomposition,
    random_psd_collection,
    random_uniform_hypergraph,
)
from psdsparsify.linalg import (
    PsdCollection,
    is_psd,
    reduce_to_identity,
    symmetrize,
)
from psdsparsify.mmwum_block import BlockParams, block_sparsify, oracle_width_fixture
from psdsparsify.mmwum_wf import WfParams, check_potential_equivalence, wf_sparsify
from psdsparsify.sampling import PeParams, aw_sample, pe_sparsify

from conftest import random_psd
from pickseq import assert_bss_invariants, assert_wf_chain, pe_estimator, replay


def report(num, ok, detail=""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def instance_family():
    """25 instances, r in 5..15, m in [5r, 40r], member ranks 1..4."""
    family = []
    for i in range(25):
        rng = np.random.default_rng(1000 + i)
        r = 5 + i % 11
        m = int(rng.integers(5 * r, 40 * r + 1))
        mats = [random_psd(rng, r, rank=int(rng.integers(1, 5))) for _ in range(m)]
        coll = PsdCollection.from_matrices(mats, validate=False)
        family.append(reduce_to_identity(coll))
    return family


@pytest.fixture(scope="module")
def bss_runs(instance_family):
    runs = []
    start = time.monotonic()
    for reduced in instance_family:
        for eps in (0.3, 0.5):
            runs.append((reduced, eps, bss_sparsify(reduced, eps)))
    return runs, time.monotonic() - start


def test_criterion_01_bss_guarantee(bss_runs):
    runs, elapsed = bss_runs
    worst_ratio_slack = 0.0
    for reduced, eps, result in runs:
        cert = result.certificate
        bound = ((2.0 + eps) / (2.0 - eps)) ** 2
        assert cert.support_size <= math.ceil(4.0 * reduced.rank / eps**2)
        assert cert.lambda_min >= 1.0 - 1e-7
        ratio = cert.lambda_max / cert.lambda_min
        assert ratio <= bound + 1e-6
        worst_ratio_slack = max(worst_ratio_slack, ratio / bound)
    report(
        1,
        elapsed < 60.0,
        f"50 runs in {elapsed:.1f}s (< 60s), worst ratio at {worst_ratio_slack:.3f} of bound",
    )


def test_criterion_02_bss_potential_monotonicity(bss_runs):
    runs, _ = bss_runs
    checked = 0
    for reduced, eps, result in runs:
        params = BssParams.from_epsilon(eps, reduced.rank)
        zero = np.zeros((reduced.rank, reduced.rank))
        assert phi_upper(zero, params.u_0) == pytest.approx(params.eps_U, rel=1e-9)
        assert phi_lower(zero, params.ell_0) == pytest.approx(params.eps_L, rel=1e-9)
        checked += assert_bss_invariants(reduced, eps, result.picks)
    report(2, True, f"barriers and potentials monotone across {checked} iterations")


def test_criterion_03_width_free_mmwum(instance_family):
    start = time.monotonic()
    steps_checked = 0
    for reduced, eps in [(red, e) for red in instance_family for e in (0.3, 0.5)]:
        eta = eps / 2.0
        params = WfParams.from_epsilon(eps, reduced.rank)
        result = wf_sparsify(reduced, eps)
        cert = result.certificate
        assert cert.support_size <= math.ceil(reduced.rank * math.log(reduced.rank) / eta**2)
        assert cert.lambda_min >= 1.0 - eps - 1e-6
        assert cert.lambda_max <= 1.0 + eps + 1e-6
        assert_wf_chain(reduced, params, result.picks)
        for t, j, alpha, a, _ in replay(reduced, result.picks):
            assert check_potential_equivalence(a, reduced.member(j), alpha, t - 1, params)
            steps_checked += 1
    elapsed = time.monotonic() - start
    report(
        3,
        elapsed < 300.0,
        f"50 runs, {steps_checked} equivalence-checked steps in {elapsed:.1f}s (< 300s)",
    )


def test_criterion_04_gamma_invariance(instance_family):
    reduced = instance_family[3]
    base = WfParams.from_epsilon(0.5, reduced.rank)
    res_a = wf_sparsify(reduced, 0.5)
    res_b = wf_sparsify(reduced, 0.5, gamma=10.0 * base.gamma)
    same_indices = [j for j, _ in res_a.picks] == [j for j, _ in res_b.picks]
    assert same_indices
    np.testing.assert_allclose(res_a.weights, res_b.weights, rtol=1e-9)
    report(4, True, f"index sequences identical over {len(res_a.picks)} steps, weights at 1e-9")


def test_criterion_05_block_mmwum():
    start = time.monotonic()
    for r, seed in ((4, 0), (5, 1), (6, 2)):
        reduced = reduce_to_identity(random_psd_collection(r, 6 * r, seed=seed))
        params = BlockParams.from_epsilon(0.5, reduced.rank)
        assert params.error_bound() <= 0.5
        result = block_sparsify(reduced, 0.5)
        cert = result.certificate
        assert cert.lambda_min >= 1.0 - 0.5 - 1e-6
        assert cert.lambda_max <= 1.0 + 0.5 + 1e-6
        width_cap = (1.0 + params.eta) * reduced.rank / params.eta
        for j, alpha in result.picks:
            assert alpha * reduced.traces[j] <= width_cap * (1 + 1e-12)
    elapsed = time.monotonic() - start
    report(5, elapsed < 600.0, f"3 runs (T up to {params.T}) in {elapsed:.1f}s (< 600s)")


def test_criterion_06_oracle_width_lower_bound():
    violations = []
    for k in (1, 2, 3):
        for eta in (0.05, 0.1):
            fix = oracle_width_fixture(k, eta)
            tr_x1 = float(np.trace(fix.x1))
            tr_x2 = float(np.trace(fix.x2))
            for idx, b in enumerate(fix.collection.matrices):
                tr_b = float(np.trace(b))
                lo = float(np.sum(fix.x2 * b)) / ((1.0 + eta) * tr_x2)
                hi = float(np.sum(fix.x1 * b)) / ((1.0 - eta) * tr_x1)
                feasible = lo <= hi
                if fix.matrix_type(idx) in (1, 2):
                    if feasible:
                        violations.append((k, eta, idx, "pair type feasible"))
                elif feasible and tr_b / hi < fix.lower_bound * (1 - 1e-12):
                    violations.append((k, eta, idx, "feasible width below bound"))
    report(
        6,
        not violations,
        "no pair-type index feasible, all feasible widths >= (1-eta) n/(9 eta)"
        if not violations
        else f"{len(violations)} violations, first: {violations[0]}",
    )


def test_criterion_07_aw_sampling():
    start = time.monotonic()
    reduced = reduce_to_identity(identity_decomposition(10))
    eps = 0.5
    wins = 0
    for seed in range(40):
        res = aw_sample(reduced, eps, seed=seed)
        assert res.certificate.support_size <= 205
        cert = res.certificate
        if cert.lambda_min >= 1.0 - eps and cert.lambda_max <= 1.0 + eps:
            wins += 1
    elapsed = time.monotonic() - start
    ok = wins >= 18 and elapsed < 30.0  # 50% minus the 5% one-sided slack
    report(7, ok, f"{wins}/40 seeds inside the window in {elapsed:.1f}s (need >= 18)")


def test_criterion_08_pessimistic_estimators():
    eps = 0.45
    quantized_ok = True
    for i in range(10):
        rng_r = 3 + i % 4
        reduced = reduce_to_identity(random_psd_collection(rng_r, 5 * rng_r + 3 * i, seed=200 + i))
        params = PeParams.from_epsilon(eps, reduced.rank)
        result = pe_sparsify(reduced, eps)
        y = result.weights
        # phi + psi recomputed from the dense P of every step
        r = reduced.rank
        values = [pe_estimator(params, np.zeros((r, r)), 0)]
        values += [pe_estimator(params, a, t) for t, _, _, _, a in replay(reduced, result.picks)]
        assert values[0] < 1.0
        assert len(result.picks) == params.T
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev * (1 + 1e-12)
        assert values[-1] < 1.0
        w = np.linalg.eigvalsh(reduced.weighted_sum(y))
        assert w[0] >= 1.0 - eps - 1e-9
        assert w[-1] <= 1.0 + eps + 1e-9
        for j in np.flatnonzero(y > 0.0):
            unit = reduced.rank / (params.T * reduced.traces[j])
            ratio = y[j] / unit
            if abs(ratio - round(ratio)) > 1e-12 * max(1.0, abs(ratio)):
                quantized_ok = False
    report(8, quantized_ok, "10 deterministic runs pass; estimator never rises")


def test_criterion_09_graph_cuts():
    graphs = [complete_graph(n) for n in (6, 8, 10)]
    graphs += [cycle_graph(n) for n in (6, 8, 10)]
    graphs += [gnp_graph(10, 0.5, seed=s) for s in range(5)]
    cuts_checked = 0
    for g in graphs:
        sp = apps.sparsify_graph(g, 0.5)
        lo, hi = sp.certificate.lambda_min, sp.certificate.lambda_max
        for mask in range(1, 2 ** (g.n - 1)):
            s = {v + 1 for v in range(g.n) if mask >> v & 1}
            orig = apps.graph_cut_weight(g, s)
            new = apps.graph_cut_weight(sp.subgraph, s)
            if orig == 0.0:
                assert abs(new) <= 1e-9
            else:
                assert lo * (1 - 1e-9) <= new / orig <= hi * (1 + 1e-9)
            cuts_checked += 1
    report(9, True, f"{len(graphs)} graphs, {cuts_checked} cuts inside certificate windows")


def test_criterion_10_hypergraph_cuts():
    eps = 0.5
    for seed in (0, 1):
        h = random_uniform_hypergraph(9, 40, 3, seed=seed)
        hs = apps.sparsify_hypergraph(h, eps)
        rep = apps.cut_sparsifier_report(h, hs.subhypergraph, eps, r=3)
        assert rep.ok, rep.violations[:4]
    for seed in (0, 1):
        h = random_uniform_hypergraph(8, 30, 4, seed=10 + seed)
        hs = apps.sparsify_hypergraph(h, eps)
        rep = apps.cut_sparsifier_report(h, hs.subhypergraph, eps, r=4)
        assert rep.ok, rep.violations[:4]
    report(10, True, "3-uniform identity w* = 2w and windows hold on every cut")


def test_criterion_11_lifted_constructions():
    eps = 0.5
    rng = np.random.default_rng(77)

    for seed in range(5):  # costs
        g = gnp_graph(8, 0.6, seed=seed)
        costs = [rng.uniform(0.0, 2.0, g.m) for _ in range(2)]
        sp = apps.sparsify_with_costs(g, costs, eps)
        assert sp.certificate.passes(eps)
        for win in sp.cost_windows:
            assert win.original * (1 - 1e-9) <= win.sparsified
            assert win.sparsified <= (1 + eps) * win.original * (1 + 1e-6) + 1e-9

    for seed in range(5):  # rainbow with the (1 - eps) lower bound
        g = gnp_graph(8, 0.6, seed=50 + seed)
        classes = [list(range(c, g.m, 3)) for c in range(3)]
        sp = apps.rainbow_sparsify(g, [c for c in classes if c], eps)
        for win in sp.cost_windows:
            assert (1 - eps) * win.original - 1e-9 <= win.sparsified
            assert win.sparsified <= (1 + eps) * win.original * (1 + 1e-6) + 1e-9

    for seed in range(5):  # sparse SDP feasibility and cost
        rng_i = np.random.default_rng(300 + seed)
        mats = [random_psd(rng_i, 8, rank=int(rng_i.integers(1, 4))) for _ in range(50)]
        z_star = rng_i.uniform(0.1, 1.0, 50)
        cost = rng_i.uniform(0.0, 1.0, 50)
        target = symmetrize(sum(z * a for z, a in zip(z_star, mats)) * 0.9)
        inst = apps.SdpInstance(matrices=mats, target=target, cost=cost, z_star=z_star)
        z_bar = apps.sparse_sdp(inst, eps).weights
        slack = symmetrize(sum(z * a for z, a in zip(z_bar, mats)) - target)
        assert is_psd(slack, tol=1e-7)
        assert float(cost @ z_bar) <= (1 + eps) * float(cost @ z_star) * (1 + 1e-6)

    for seed in range(5):  # Caratheodory
        rng_i = np.random.default_rng(400 + seed)
        mats = [random_psd(rng_i, 6, rank=int(rng_i.integers(1, 4))) for _ in range(40)]
        coll = PsdCollection.from_matrices(mats, validate=False)
        lam = rng_i.uniform(0.1, 1.0, 40)
        lam /= lam.sum()
        mu = apps.caratheodory(lam, coll, eps).weights
        assert float(mu.sum()) == 1.0
        target = sum(l * b for l, b in zip(lam, mats))
        combo = sum(m * b for m, b in zip(mu, mats))
        assert is_psd(symmetrize(combo - (1 - eps) * target), tol=1e-7)
        assert is_psd(symmetrize((1 + eps) * target - combo), tol=1e-7)

    for seed in range(5):  # subgraph families
        g = complete_graph(6)
        rng_i = np.random.default_rng(500 + seed)
        edges = [(u, v) for u, v, _ in g.edges]
        pick = rng_i.choice(len(edges), size=5, replace=False)
        family = [[edges[i] for i in pick[:3]], [edges[i] for i in pick[3:]]]
        sp = apps.subgraph_family_sparsify(g, family, eps)
        assert sp.certificate.passes(eps)
        for cert in sp.member_certificates:
            assert cert.passes(eps)

    report(11, True, "costs, rainbow, SDP, simplex, and family windows all verified")


def test_criterion_12_psd_necessity():
    eps = 0.5
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        mats = apps.psd_counterexample(n)
        total = sum(mats)
        assert np.max(np.abs(total - (np.eye(n) + np.ones((n, n))))) <= 1e-12
        for pair in mats[1:]:
            assert not is_psd(pair, tol=1e-12)
        for drop in range(1, len(mats)):
            y = rng.uniform(0.1, 3.0, len(mats))
            y[drop] = 0.0
            combo = sum(yi * m for yi, m in zip(y, mats))
            gap = combo - (1 - eps) * total
            assert float(np.sum(gap * mats[drop])) < 0.0
    report(12, True, "pair matrices indefinite; zeroed coordinates break the lower bound")

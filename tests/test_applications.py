"""Graph, hypergraph, SDP, and convex-combination applications."""

import tracemalloc
import warnings
import weakref

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psdsparsify import applications, solve
from psdsparsify.applications import (
    SdpInstance,
    WeightedGraph,
    WeightedHypergraph,
    caratheodory,
    clique_laplacian,
    cost_lifted_collection,
    cut_sparsifier_report,
    cut_weight,
    cut_weight_star,
    edge_collection,
    family_lifted_collection,
    family_members,
    graph_cut_weight,
    hyperedge_collection,
    hypergraph_laplacian,
    laplacian,
    psd_counterexample,
    rainbow_sparsify,
    renormalize_simplex,
    sparse_sdp,
    sparsify_graph,
    sparsify_hypergraph,
    sparsify_with_costs,
    subgraph_family_sparsify,
)
from psdsparsify.errors import (
    InfeasibleInput,
    InvalidColoring,
    InvalidCost,
    InvalidFamily,
    InvalidMatrix,
    InvalidSimplexPoint,
)
from psdsparsify.instances import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    random_uniform_hypergraph,
)
from psdsparsify.linalg import PsdCollection, is_psd, member_sum, reduce_to_identity, symmetrize

from conftest import dense_members, random_psd


def all_cuts(n):
    for mask in range(1, 2 ** (n - 1)):
        yield {v + 1 for v in range(n) if mask >> v & 1}


def traced_peak(call, *args) -> int:
    """The tracemalloc peak of ``call(*args)`` in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def mixed_hypergraphs(draw):
    """Hypergraphs on 6 to 10 vertices with 1 to 12 hyperedges of 2 to 6
    vertices each, their weights log-uniform in [1e-6, 1e6]."""
    n = draw(st.integers(min_value=6, max_value=10))
    hyperedges = []
    for k in draw(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=12)):
        verts = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
        hyperedges.append((tuple(verts), 10.0 ** draw(st.floats(min_value=-6.0, max_value=6.0))))
    return WeightedHypergraph(n=n, hyperedges=hyperedges)


def running_outer_sum(n, pairs, weights):
    """sum of w (e_u - e_v)(e_u - e_v)^T over 1-based pairs, added in order."""
    out = np.zeros((n, n))
    for (u, v), w in zip(pairs, weights):
        x = np.zeros(n)
        x[u - 1] = 1.0
        x[v - 1] = -1.0
        out += w * np.outer(x, x)
    return out


class TestLaplacian:
    def test_is_the_running_sum_of_the_edge_laplacians(self):
        rng = np.random.default_rng(5)
        pairs = [(u, v) for u in range(1, 13) for v in range(u + 1, 13) if rng.random() < 0.6]
        rng.shuffle(pairs)
        weights = rng.exponential(size=len(pairs)) * 10.0 ** rng.integers(-6, 6, size=len(pairs))
        g = WeightedGraph(n=12, edges=[(u, v, float(w)) for (u, v), w in zip(pairs, weights)])
        assert laplacian(g).tobytes() == running_outer_sum(12, pairs, weights).tobytes()

    def test_memory_is_linear_in_edges_and_vertex_pairs(self):
        g = complete_graph(60)
        assert traced_peak(laplacian, g) <= 8 * (4 * g.n * g.n + 32 * g.m)

    def test_single_edge(self):
        g = WeightedGraph(n=2, edges=[(1, 2, 3.0)])
        np.testing.assert_allclose(laplacian(g), [[3.0, -3.0], [-3.0, 3.0]])

    def test_empty_graph(self):
        np.testing.assert_allclose(laplacian(WeightedGraph(n=3, edges=[])), np.zeros((3, 3)))

    @pytest.mark.parametrize("w", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(ValueError, match=r"edge \(1, 2\) has non-finite weight"):
            WeightedGraph(n=2, edges=[(1, 2, w)])

    @pytest.mark.parametrize("n", [-4, 0])
    def test_vertex_count_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"vertex count must be positive, got {n}"):
            sparsify_graph(WeightedGraph(n=n, edges=[]), 0.5)

    def test_triangle(self):
        g = complete_graph(3)
        expect = 2.0 * np.eye(3) - (np.ones((3, 3)) - np.eye(3))
        np.testing.assert_allclose(laplacian(g), expect)

    def test_kernel_and_cut_form(self):
        g = cycle_graph(5)
        lap = laplacian(g)
        assert is_psd(lap, tol=1e-9)
        np.testing.assert_allclose(lap @ np.ones(5), np.zeros(5), atol=1e-12)
        for s in all_cuts(5):
            ind = np.array([1.0 if v in s else 0.0 for v in range(1, 6)])
            assert ind @ lap @ ind == pytest.approx(graph_cut_weight(g, s), abs=1e-9)


class TestSparsifyGraph:
    def test_complete_graph(self):
        g = complete_graph(4)
        sp = sparsify_graph(g, 0.5)
        assert sp.subgraph.m <= int(np.ceil(4 * 3 / 0.25))
        assert sp.certificate.lambda_max / sp.certificate.lambda_min <= 25.0 / 9.0 + 1e-6
        assert sp.certificate.passes(0.5)

    def test_single_edge_kept(self):
        g = WeightedGraph(n=2, edges=[(1, 2, 2.5)])
        sp = sparsify_graph(g, 0.3)
        assert sp.subgraph.m == 1
        assert sp.certificate.epsilon_achieved == pytest.approx(0.0, abs=1e-9)

    def test_cuts_within_certificate_ratio(self):
        g = complete_graph(6)
        sp = sparsify_graph(g, 0.5)
        hi = sp.certificate.lambda_max
        lo = sp.certificate.lambda_min
        for s in all_cuts(6):
            orig = graph_cut_weight(g, s)
            new = graph_cut_weight(sp.subgraph, s)
            assert lo * orig * (1 - 1e-9) <= new <= hi * orig * (1 + 1e-9)


class TestCosts:
    def test_no_costs_reduces_to_plain(self):
        g = complete_graph(4)
        plain = sparsify_graph(g, 0.5)
        with_zero = sparsify_with_costs(g, [], 0.5)
        assert np.array_equal(plain.weights, with_zero.weights)

    def test_weight_total_window(self):
        g = complete_graph(5)
        w = np.array([e[2] for e in g.edges])
        sp = sparsify_with_costs(g, [w], 0.5)
        (window,) = sp.cost_windows
        assert window.original == pytest.approx(float(w @ w))
        assert window.within(0.5)

    def test_path_two_costs(self):
        g = WeightedGraph(n=4, edges=[(1, 2, 1.0), (2, 3, 2.0), (3, 4, 1.5)])
        costs = [np.array([1.0, 0.0, 2.0]), np.array([0.5, 0.5, 0.5])]
        sp = sparsify_with_costs(g, costs, 0.5)
        for window in sp.cost_windows:
            assert window.within(0.5)
        assert sp.certificate.passes(0.5)

    def test_negative_cost_rejected(self):
        g = complete_graph(3)
        with pytest.raises(InvalidCost):
            sparsify_with_costs(g, [np.array([1.0, -1.0, 0.0])], 0.5)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_cost_rejected(self, c):
        g = complete_graph(3)
        with pytest.raises(InvalidCost, match="cost 1 has a non-finite entry"):
            cost_lifted_collection(g, [np.ones(3), np.array([1.0, c, 0.0])])


class TestRainbow:
    def test_single_color(self):
        g = complete_graph(4)
        sp = rainbow_sparsify(g, [list(range(g.m))], 0.5)
        (window,) = sp.cost_windows
        assert window.within(0.5)

    def test_perfect_matching_classes(self):
        g = complete_graph(4)
        matchings = [[0, 5], [1, 4], [2, 3]]  # {12,34}, {13,24}, {14,23}
        flat = sorted(i for cls in matchings for i in cls)
        assert flat == list(range(6))
        sp = rainbow_sparsify(g, matchings, 0.5)
        for window in sp.cost_windows:
            lo = (1 - 0.5) * window.original
            hi = (1 + 0.5) * window.original * (1 + 1e-6)
            assert lo <= window.sparsified <= hi

    def test_singleton_classes_keep_every_edge(self):
        g = cycle_graph(5)
        sp = rainbow_sparsify(g, [[i] for i in range(g.m)], 0.5)
        assert sp.subgraph.m == g.m
        for (u, v, w_new), (_, _, w_old) in zip(sp.subgraph.edges, g.edges):
            assert w_old * (1 - 1e-9) <= w_new <= (1 + 0.5) * w_old * (1 + 1e-6)

    def test_bad_partition_rejected(self):
        g = complete_graph(3)
        with pytest.raises(InvalidColoring):
            rainbow_sparsify(g, [[0, 1]], 0.5)
        with pytest.raises(InvalidColoring):
            rainbow_sparsify(g, [[0, 1, 2], [2]], 0.5)


class TestHypergraphLaplacian:
    def test_single_triple(self):
        h = WeightedHypergraph(n=3, hyperedges=[((1, 2, 3), 1.0)])
        expect = 2.0 * np.eye(3) - (np.ones((3, 3)) - np.eye(3))
        np.testing.assert_allclose(hypergraph_laplacian(h), expect)

    @pytest.mark.parametrize("w", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(ValueError, match=r"hyperedge \(1, 2, 3\) has non-finite weight"):
            WeightedHypergraph(n=3, hyperedges=[((1, 2, 3), w)])

    @pytest.mark.parametrize("n", [-3, 0])
    def test_vertex_count_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"vertex count must be positive, got {n}"):
            sparsify_hypergraph(WeightedHypergraph(n=n, hyperedges=[]), 0.5)

    def test_two_uniform_matches_graph(self):
        g = WeightedGraph(n=4, edges=[(1, 2, 1.5), (2, 4, 0.5)])
        h = WeightedHypergraph(n=4, hyperedges=[((1, 2), 1.5), ((2, 4), 0.5)])
        np.testing.assert_allclose(hypergraph_laplacian(h), laplacian(g))

    def test_clique_is_the_running_sum_over_its_pairs(self):
        verts = (7, 2, 5, 3)
        pairs = [(u, v) for u in sorted(verts) for v in sorted(verts) if u < v]
        want = running_outer_sum(8, pairs, np.ones(len(pairs)))
        assert clique_laplacian(verts, 8).tobytes() == want.tobytes()

    def test_clique_memory_is_quadratic_in_n(self):
        # one stacked outer product per pair would take C(n, 2) n^2 floats
        n = 200
        assert traced_peak(clique_laplacian, range(1, n + 1), n) <= 4 * n * n * 8

    def test_collection_holds_its_members_once(self):
        # each member once, as its k - 1 rows, next to B; no n x n member is built
        h = random_uniform_hypergraph(60, 300, 3, seed=0)
        coll = hyperedge_collection(h)
        assert coll.rows.shape == (2 * h.m, h.n)
        held = coll.rows.nbytes + coll.total().nbytes
        assert traced_peak(hyperedge_collection, h) <= 3 * held
        want = np.stack([w * clique_laplacian(verts, h.n) for verts, w in h.hyperedges])
        assert coll.total().tobytes() == member_sum(want).tobytes()
        assert np.abs(dense_members(coll) - want).max() <= 1e-12 * np.abs(want).max()

    def test_clique_spectrum(self):
        lap = clique_laplacian((1, 2, 3, 4), 4)
        np.testing.assert_allclose(np.linalg.eigvalsh(lap), [0.0, 4.0, 4.0, 4.0], atol=1e-12)

    @given(mixed_hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_mixed_sizes_lift_as_their_cliques(self, h):
        coll = hyperedge_collection(h)
        # B is the running sum of the clique blocks, added in hyperedge order
        want = np.zeros((h.n, h.n))
        for verts, w in h.hyperedges:
            at = np.array(sorted(verts)) - 1
            want[np.ix_(at, at)] += w * (len(at) * np.eye(len(at)) - 1.0)
        assert coll.total().tobytes() == want.tobytes()
        members = dense_members(coll)
        for j, (verts, w) in enumerate(h.hyperedges):
            block = w * clique_laplacian(verts, h.n)
            assert np.abs(members[j] - block).max() <= 1e-12 * np.abs(block).max()
            if len(verts) == 2:
                edge = edge_collection(WeightedGraph(n=h.n, edges=[(*sorted(verts), w)]))
                rows = coll.rows[coll.bounds[j] : coll.bounds[j + 1]]
                assert rows.tobytes() == edge.rows.tobytes()


class TestCutWeights:
    def test_single_hyperedge(self):
        h = WeightedHypergraph(n=3, hyperedges=[((1, 2, 3), 1.0)])
        assert cut_weight(h, {1}) == 1.0
        assert cut_weight_star(h, {1}) == 2.0

    def test_empty_side(self):
        h = WeightedHypergraph(n=3, hyperedges=[((1, 2, 3), 1.0)])
        assert cut_weight(h, set()) == 0.0
        assert cut_weight_star(h, set()) == 0.0

    @pytest.mark.parametrize("r,a", [(4, 1), (4, 2), (5, 2), (6, 3)])
    def test_crossing_pair_formula(self, r, a):
        w = 1.7
        h = WeightedHypergraph(n=r, hyperedges=[(tuple(range(1, r + 1)), w)])
        s = set(range(1, a + 1))
        assert cut_weight_star(h, s) == pytest.approx(a * (r - a) * w)

    def test_star_equals_quadratic_form(self):
        h = random_uniform_hypergraph(7, 14, 3, seed=3)
        lap = hypergraph_laplacian(h)
        for s in all_cuts(7):
            ind = np.array([1.0 if v in s else 0.0 for v in range(1, 8)])
            assert cut_weight_star(h, s) == pytest.approx(float(ind @ lap @ ind), rel=1e-9)

    def test_definitional_window(self):
        for r in (3, 4):
            h = random_uniform_hypergraph(8, 15, r, seed=r)
            pairs = (r // 2) * (r - r // 2)
            for s in all_cuts(8):
                w = cut_weight(h, s)
                ws = cut_weight_star(h, s)
                assert (r - 1) * w - 1e-9 <= ws <= pairs * w + 1e-9


class TestSparsifyHypergraph:
    def test_single_edge(self):
        h = WeightedHypergraph(n=4, hyperedges=[((1, 2, 4), 2.0)])
        hs = sparsify_hypergraph(h, 0.5)
        assert hs.subhypergraph.m == 1
        assert hs.certificate.epsilon_achieved == pytest.approx(0.0, abs=1e-9)

    def test_three_uniform_certificate(self):
        h = random_uniform_hypergraph(9, 60, 3, seed=2)
        hs = sparsify_hypergraph(h, 0.5)
        assert hs.certificate.lambda_max / hs.certificate.lambda_min <= 25.0 / 9.0 + 1e-6
        assert hs.certificate.passes(0.5)

    def test_two_uniform_matches_graph_run(self):
        edges = [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 1.0)]
        g = WeightedGraph(n=4, edges=edges)
        h = WeightedHypergraph(n=4, hyperedges=[((u, v), w) for u, v, w in edges])
        sp = sparsify_graph(g, 0.5)
        hs = sparsify_hypergraph(h, 0.5)
        assert np.array_equal(sp.weights, hs.weights)

    def test_cut_report_three_uniform(self):
        h = random_uniform_hypergraph(6, 10, 3, seed=5)
        hs = sparsify_hypergraph(h, 0.5)
        report = cut_sparsifier_report(h, hs.subhypergraph, 0.5, r=3)
        assert report.ok, report.violations[:5]
        assert report.cuts_checked == 2**6 - 2

    def test_cut_report_refuses_large(self):
        h = random_uniform_hypergraph(21, 5, 3, seed=0)
        with pytest.raises(ValueError):
            cut_sparsifier_report(h, h, 0.5)


class TestSparseSdp:
    def test_scalar_instance(self):
        inst = SdpInstance(
            matrices=[np.eye(2)],
            target=np.eye(2),
            cost=np.array([1.0]),
            z_star=np.array([1.0]),
        )
        z_bar = sparse_sdp(inst, 0.5).weights
        assert 1.0 - 1e-9 <= z_bar[0] <= 1.5 + 1e-6

    def test_zero_cost_still_feasible(self):
        rng = np.random.default_rng(1)
        mats = [random_psd(rng, 3, rank=2) for _ in range(8)]
        z_star = rng.uniform(0.5, 1.5, 8)
        target = symmetrize(sum(z * a for z, a in zip(z_star, mats)) * 0.8)
        inst = SdpInstance(matrices=mats, target=target, cost=np.zeros(8), z_star=z_star)
        z_bar = sparse_sdp(inst, 0.5).weights
        slack = sum(z * a for z, a in zip(z_bar, mats)) - target
        assert is_psd(symmetrize(slack), tol=1e-7)

    def test_random_diagonal_instance(self):
        rng = np.random.default_rng(4)
        mats = [np.diag(rng.uniform(0.1, 2.0, 8)) for _ in range(50)]
        cost = rng.uniform(0.0, 1.0, 50)
        z_star = rng.uniform(0.1, 1.0, 50)
        target = symmetrize(sum(z * a for z, a in zip(z_star, mats)) * 0.9)
        inst = SdpInstance(matrices=mats, target=target, cost=cost, z_star=z_star)
        z_bar = sparse_sdp(inst, 0.5).weights
        assert float(cost @ z_bar) <= 1.5 * float(cost @ z_star) * (1 + 1e-6)
        slack = sum(z * a for z, a in zip(z_bar, mats)) - target
        assert is_psd(symmetrize(slack), tol=1e-7)

    def test_infeasible_rejected(self):
        inst = SdpInstance(
            matrices=[np.eye(2)],
            target=2.0 * np.eye(2),
            cost=np.array([1.0]),
            z_star=np.array([1.0]),
        )
        with pytest.raises(InfeasibleInput):
            sparse_sdp(inst, 0.5)

    @pytest.mark.parametrize("field", ["cost", "z_star"])
    def test_non_finite_cost_or_z_star_rejected(self, field):
        values = {"cost": np.array([1.0, 1.0]), "z_star": np.array([1.0, 1.0])}
        values[field][1] = np.nan
        inst = SdpInstance(matrices=np.stack([np.eye(2)] * 2), target=np.eye(2), **values)
        with pytest.raises(InfeasibleInput, match="cost and z_star must be finite"):
            sparse_sdp(inst, 0.5)


class TestCaratheodory:
    def test_single_matrix(self):
        coll = PsdCollection.from_matrices([np.eye(3)])
        mu = caratheodory(np.array([1.0]), coll, 0.5).weights
        np.testing.assert_allclose(mu, [1.0])

    def test_equal_matrices_ratio_one(self):
        coll = PsdCollection.from_matrices([np.eye(2)] * 5)
        mu = caratheodory(np.full(5, 0.2), coll, 0.5).weights
        assert mu.sum() == 1.0
        combined = sum(m * b for m, b in zip(mu, coll.matrices))
        np.testing.assert_allclose(combined, np.eye(2), atol=1e-9)

    def test_random_collection(self):
        rng = np.random.default_rng(8)
        mats = [random_psd(rng, 6, rank=int(rng.integers(1, 4))) for _ in range(100)]
        coll = PsdCollection.from_matrices(mats, validate=False)
        lam = rng.uniform(0.2, 1.0, 100)
        lam /= lam.sum()
        mu = caratheodory(lam, coll, 0.5).weights
        assert mu.sum() == 1.0
        assert np.all(mu >= 0.0)
        target = sum(l * b for l, b in zip(lam, mats))
        combined = sum(m * b for m, b in zip(mu, mats))
        assert is_psd(symmetrize(combined - 0.5 * target), tol=1e-7)
        assert is_psd(symmetrize(1.5 * target - combined), tol=1e-7)

    @settings(max_examples=300, deadline=None)
    @example(np.array([0.156, 0.345, 0.059]))  # the largest entry alone cannot land on 1.0
    # each nudge flips the float sum between 1 - 2^-53 and 1 + 2^-52
    @example(np.array([1.0, 0.25, 0.53125, 2.0**-52]))
    @given(hnp.arrays(float, st.integers(2, 199), elements=st.floats(0.0, 1.0)))
    def test_renormalized_simplex_sums_exactly_to_one(self, vec):
        assume(vec.sum() > 0.0)
        scaled = vec / vec.sum()
        out = renormalize_simplex(vec)
        assert float(out.sum()) == 1.0
        assert np.array_equal(out > 0.0, scaled > 0.0)
        np.testing.assert_allclose(out, scaled, rtol=0.0, atol=1e-13)

    def test_rejects_off_simplex(self):
        coll = PsdCollection.from_matrices([np.eye(2), np.eye(2)])
        with pytest.raises(InvalidSimplexPoint):
            caratheodory(np.array([0.7, 0.7]), coll, 0.5)
        with pytest.raises(InvalidSimplexPoint):
            caratheodory(np.array([1.5, -0.5]), coll, 0.5)

    @pytest.mark.parametrize("lam", [[np.nan, 1.0], [np.inf, 0.0]])
    def test_rejects_non_finite_lambda(self, lam):
        coll = PsdCollection.from_matrices([np.eye(2), np.eye(2)])
        with pytest.raises(InvalidSimplexPoint, match="lambda has a non-finite entry"):
            caratheodory(np.array(lam), coll, 0.5)

    def test_rejects_a_rows_collection(self):
        coll = edge_collection(complete_graph(4))
        with pytest.raises(InvalidMatrix, match="needs a dense collection"):
            caratheodory(np.full(6, 1.0 / 6.0), coll, 0.5)


class TestSubgraphFamily:
    def test_empty_family_reduces_to_plain(self):
        g = complete_graph(4)
        plain = sparsify_graph(g, 0.5)
        fam = subgraph_family_sparsify(g, [], 0.5)
        assert np.array_equal(plain.weights, fam.weights)

    def test_whole_graph_family(self):
        g = complete_graph(4)
        fam = subgraph_family_sparsify(g, [[(u, v) for u, v, _ in g.edges]], 0.5)
        (member,) = fam.member_certificates
        assert member.lambda_min == pytest.approx(fam.certificate.lambda_min, rel=1e-9)
        assert member.lambda_max == pytest.approx(fam.certificate.lambda_max, rel=1e-9)

    def test_two_disjoint_triangles_in_k5(self):
        g = complete_graph(5)
        family = [[(1, 2), (2, 3), (1, 3)], [(1, 4), (4, 5), (1, 5)]]
        fam = subgraph_family_sparsify(g, family, 0.5)
        assert fam.certificate.passes(0.5)
        for cert in fam.member_certificates:
            assert cert.passes(0.5)

    def test_non_edge_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(InvalidFamily):
            subgraph_family_sparsify(g, [[(1, 3)]], 0.5)

    def test_member_without_edges_rejected(self):
        with pytest.raises(InvalidFamily, match="family member 1 has no edges"):
            family_lifted_collection(complete_graph(4), [[(1, 2)], []])


class TestBlockLiftings:
    """Each direct-sum construction is PSD and sums to the documented B'."""

    def test_costs_blocks(self):
        g = WeightedGraph(n=3, edges=[(1, 2, 1.0), (2, 3, 2.0), (1, 3, 0.5)])
        costs = [np.array([1.0, 0.0, 2.0]), np.array([0.25, 0.5, 0.75])]
        coll = cost_lifted_collection(g, costs)
        w = np.array([e[2] for e in g.edges])
        expect = np.zeros((5, 5))
        expect[:3, :3] = laplacian(g)
        expect[3, 3] = float(w @ costs[0])
        expect[4, 4] = float(w @ costs[1])
        assert np.max(np.abs(coll.total() - expect)) <= 1e-10
        for mat in dense_members(coll):
            assert is_psd(mat, tol=1e-9)

    def test_sdp_blocks(self):
        from psdsparsify.applications import sdp_lifted_collection

        rng = np.random.default_rng(6)
        mats = [random_psd(rng, 3, rank=2) for _ in range(5)]
        z_star = rng.uniform(0.2, 1.0, 5)
        cost = rng.uniform(0.0, 1.0, 5)
        dominant = sum(z * a for z, a in zip(z_star, mats))
        inst = SdpInstance(
            matrices=mats, target=symmetrize(0.7 * dominant), cost=cost, z_star=z_star
        )
        coll = sdp_lifted_collection(inst)
        expect = np.zeros((4, 4))
        expect[:3, :3] = dominant
        expect[3, 3] = float(cost @ z_star)
        assert np.max(np.abs(coll.total() - expect)) <= 1e-10
        for mat in coll.matrices:
            assert is_psd(mat, tol=1e-9)

    def test_caratheodory_blocks(self):
        from psdsparsify.applications import caratheodory_lifted

        rng = np.random.default_rng(7)
        mats = [random_psd(rng, 2, rank=1) for _ in range(6)]
        coll = PsdCollection.from_matrices(mats, validate=False)
        lam = rng.uniform(0.1, 1.0, 6)
        lam /= lam.sum()
        lifted = caratheodory_lifted(lam, coll)
        expect = np.zeros((3, 3))
        expect[:2, :2] = sum(l * b for l, b in zip(lam, mats))
        expect[2, 2] = 1.0
        assert np.max(np.abs(lifted.total() - expect)) <= 1e-10
        for mat in lifted.matrices:
            assert is_psd(mat, tol=1e-9)

    def test_family_blocks(self):
        g = complete_graph(4)
        family = [[(1, 2), (2, 3)], [(3, 4)]]
        coll = family_lifted_collection(g, family)
        assert coll.dim == 4 + 3 + 2
        expect = np.zeros((9, 9))
        expect[:4, :4] = laplacian(g)
        expect[4:7, 4:7] = laplacian(WeightedGraph(n=3, edges=[(1, 2, 1.0), (2, 3, 1.0)]))
        expect[7:9, 7:9] = laplacian(WeightedGraph(n=2, edges=[(1, 2, 1.0)]))
        assert np.max(np.abs(coll.total() - expect)) <= 1e-10
        for mat in dense_members(coll):
            assert is_psd(mat, tol=1e-9)
        assert family_members(g, family)[0] == ([(1, 2), (2, 3)], [0, 3])

    @pytest.mark.parametrize(
        "lift",
        [
            lambda: edge_collection(WeightedGraph(3, [(1, 2, 1e308), (2, 3, 1e308)])),
            lambda: hyperedge_collection(WeightedHypergraph(3, [((1, 2, 3), 1e308)])),
            lambda: family_lifted_collection(
                WeightedGraph(3, [(1, 2, 1e308), (2, 3, 1e308)]), [[(1, 2), (2, 3)]]
            ),
            # the slot w c overflows
            lambda: cost_lifted_collection(
                WeightedGraph(3, [(1, 2, 1e300), (2, 3, 1.0), (1, 3, 1.0)]), [[1e10, 1.0, 1.0]]
            ),
            # every slot is finite, their sum is not
            lambda: cost_lifted_collection(
                WeightedGraph(4, [(1, 2, 1e308), (3, 4, 1e308)]), [[1.0, 1.0]]
            ),
            # the public Laplacians raise what the lifts built on them raise
            lambda: laplacian(WeightedGraph(3, [(1, 2, 1e308), (2, 3, 1e308)])),
            lambda: hypergraph_laplacian(WeightedHypergraph(3, [((1, 2, 3), 1e308)])),
        ],
        ids=[
            "edge", "hyperedge", "family", "cost-slot", "cost-sum", "laplacian", "hyper-laplacian"
        ],
    )
    def test_overflowing_lift_is_one_typed_error(self, lift):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidMatrix, match="overflows float64"):
                lift()


def _gnp_with_costs():
    g = gnp_graph(60, 0.5, seed=0)
    rng = np.random.default_rng(0)
    return cost_lifted_collection(g, [rng.uniform(0.0, 1.0, g.m), rng.uniform(0.0, 1.0, g.m)])


def _gnp_with_family():
    g = gnp_graph(60, 0.5, seed=0)
    pairs = [(u, v) for u, v, _ in g.edges]
    return family_lifted_collection(g, [pairs[:200], pairs[100:400]])


# lifted collections of a G(60, 0.5) graph (868 edges) and a hypergraph;
# one dense stack of the cost lift alone would take 26.7 MB
_LIFTS = {
    "cost": _gnp_with_costs,
    "hyperedge": lambda: hyperedge_collection(random_uniform_hypergraph(60, 300, 3, seed=0)),
    "family": _gnp_with_family,
}


class TestRowsMemory:
    @pytest.mark.parametrize("name", list(_LIFTS))
    def test_lift_and_whitening_stay_within_four_times_the_rows(self, name):
        build = _LIFTS[name]
        rows_bytes = build().rows.nbytes
        assert traced_peak(lambda: reduce_to_identity(build())) <= 4 * rows_bytes


def _sdp_instance():
    rng = np.random.default_rng(1)
    mats = [random_psd(rng, 3, rank=2) for _ in range(8)]
    z_star = rng.uniform(0.5, 1.5, 8)
    target = symmetrize(sum(z * a for z, a in zip(z_star, mats)) * 0.8)
    return SdpInstance(matrices=mats, target=target, cost=np.ones(8), z_star=z_star)


# each application, and the builder whose lift it hands to ``sparsify_sum``
_APPLICATIONS = {
    "graph": ("edge_collection", lambda: sparsify_graph(complete_graph(5), 0.5)),
    "costs": (
        "cost_lifted_collection",
        lambda: sparsify_with_costs(complete_graph(5), [np.arange(10.0)], 0.5),
    ),
    "hypergraph": (
        "hyperedge_collection",
        lambda: sparsify_hypergraph(random_uniform_hypergraph(6, 8, 3, seed=0), 0.5),
    ),
    "sdp": ("sdp_lifted_collection", lambda: sparse_sdp(_sdp_instance(), 0.5)),
    "simplex": (
        "caratheodory_lifted",
        lambda: caratheodory(np.full(5, 0.2), PsdCollection.from_matrices([np.eye(2)] * 5), 0.5),
    ),
    "family": (
        "family_lifted_collection",
        lambda: subgraph_family_sparsify(complete_graph(4), [[(1, 2), (2, 3)], [(3, 4)]], 0.5),
    ),
}


@pytest.mark.parametrize("name", sorted(_APPLICATIONS))
def test_the_lift_is_freed_before_the_solve(name, monkeypatch):
    # the solvers read only the whitened rows, so nothing may hold the lift
    builder, call = _APPLICATIONS[name]
    build, run_algorithm, lifts, freed = getattr(applications, builder), solve.run_algorithm, [], []

    def recording_build(*args):
        lift = build(*args)
        lifts.append(weakref.ref(lift))
        return lift

    def checking_run(*args, **kwargs):
        freed.append(lifts[0]() is None)
        return run_algorithm(*args, **kwargs)

    monkeypatch.setattr(applications, builder, recording_build)
    monkeypatch.setattr(solve, "run_algorithm", checking_run)
    call()
    assert freed == [True]


class TestPsdCounterexample:
    def test_two_dim(self):
        mats = psd_counterexample(2)
        assert len(mats) == 2
        np.testing.assert_allclose(mats[0], 2.0 * np.eye(2))
        np.testing.assert_allclose(sum(mats), [[2.0, 1.0], [1.0, 2.0]])

    def test_three_dim_count_and_sum(self):
        mats = psd_counterexample(3)
        assert len(mats) == 4
        np.testing.assert_allclose(sum(mats), np.eye(3) + np.ones((3, 3)))

    def test_pair_matrices_fail_psd(self):
        mats = psd_counterexample(4)
        for pair in mats[1:]:
            assert not is_psd(pair, tol=1e-12)
            np.testing.assert_allclose(
                sorted(np.linalg.eigvalsh(pair))[:1], [-1.0], atol=1e-12
            )

    def test_zeroed_coordinate_breaks_lower_bound(self):
        rng = np.random.default_rng(2)
        n = 4
        mats = psd_counterexample(n)
        b = sum(mats)
        eps = 0.3
        for drop in range(1, len(mats)):
            y = rng.uniform(0.5, 2.0, len(mats))
            y[drop] = 0.0
            combo = sum(yi * m for yi, m in zip(y, mats))
            gap = combo - (1 - eps) * b
            assert float(np.sum(gap * mats[drop])) < 0.0

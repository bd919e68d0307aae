"""Core symmetric linear algebra and the whitening reduction."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdsparsify.errors import (
    DimMismatch,
    EmptyProblem,
    ExpOverflow,
    InvalidMatrix,
    NegativeWeight,
    NotPsd,
)
from psdsparsify.applications import (
    WeightedGraph,
    WeightedHypergraph,
    caratheodory_lifted,
    cost_lifted_collection,
    edge_collection,
    family_lifted_collection,
    hyperedge_collection,
    sdp_lifted_collection,
)
from psdsparsify import linalg
from psdsparsify.bss import bss_sparsify
from psdsparsify.instances import (
    complete_graph,
    identity_decomposition,
    random_psd_collection,
    random_uniform_hypergraph,
)
from psdsparsify.io_formats import parse_matrix_collection, parse_sdp, parse_simplex
from psdsparsify.linalg import (
    FACTOR_BATCH,
    FACTOR_CUT,
    PsdCollection,
    ReducedInstance,
    certificate_for,
    eigh,
    eigvalsh,
    is_psd,
    member_sum,
    reduce_to_identity,
    sym_exp,
    symmetrize,
    verify_sandwich,
    whiten,
)

from psdsparsify.mmwum_block import block_sparsify
from psdsparsify.mmwum_wf import wf_sparsify

from conftest import hand_reduced, random_psd, random_sym, whitened_members


class TestEigh:
    def test_diagonal(self):
        spec = eigh(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0])
        # eigenvectors are signed permutation columns
        np.testing.assert_allclose(np.abs(spec.eigenvectors), np.eye(2)[:, ::-1])

    def test_zero(self):
        spec = eigh(np.zeros((3, 3)))
        np.testing.assert_allclose(spec.eigenvalues, np.zeros(3))

    def test_off_diagonal_pair(self):
        # characteristic polynomial x^2 - 1 by hand
        spec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidMatrix):
            eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_stack_matches_members_exactly(self):
        rng = np.random.default_rng(3)
        stack = symmetrize(rng.standard_normal((6, 5, 5)))
        spec = eigh(stack)
        for k, m in enumerate(stack):
            single = eigh(m)
            assert np.array_equal(spec.eigenvalues[k], single.eigenvalues)
            assert np.array_equal(spec.eigenvectors[k], single.eigenvectors)

    def test_stack_with_one_nonfinite_member_rejected(self):
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 1, 1] = np.nan
        with pytest.raises(InvalidMatrix):
            eigh(stack)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (2, 2, 2, 2)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(InvalidMatrix):
            eigh(np.zeros(shape))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_reconstruction_and_orthonormality(self, n, seed):
        rng = np.random.default_rng(seed)
        m = random_psd(rng, n)
        spec = eigh(m)
        q, w = spec.eigenvectors, spec.eigenvalues
        rebuilt = (q * w) @ q.T
        assert np.linalg.norm(rebuilt - m, "fro") <= 1e-9 * (1 + np.linalg.norm(m, "fro"))
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-9
        assert np.all(np.diff(w) >= 0)


class TestEigvalsh:
    def test_stack_matches_members_exactly(self):
        rng = np.random.default_rng(4)
        stack = symmetrize(rng.standard_normal((6, 5, 5)))
        w = eigvalsh(stack)
        assert w.shape == (6, 5)
        for k, m in enumerate(stack):
            assert np.array_equal(w[k], eigvalsh(m))

    def test_matches_eigh_eigenvalues(self):
        m = random_psd(np.random.default_rng(5), 6)
        np.testing.assert_allclose(eigvalsh(m), eigh(m).eigenvalues, rtol=0.0, atol=1e-12)

    def test_stack_with_one_nonfinite_member_rejected(self):
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 0, 1] = np.nan
        with pytest.raises(InvalidMatrix):
            eigvalsh(stack)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (2, 2, 2, 2)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(InvalidMatrix):
            eigvalsh(np.zeros(shape))


class TestIsPsd:
    def test_identity_zero_tol(self):
        assert is_psd(np.eye(4), tol=0.0)

    def test_indefinite(self):
        assert not is_psd(np.diag([1.0, -1.0]), tol=1e-12)

    def test_edge_laplacian_zero_tol(self):
        # eigenvalues {0, 2} by hand
        assert is_psd(np.array([[1.0, -1.0], [-1.0, 1.0]]), tol=0.0)

    def test_validation_keeps_no_eigenvectors(self):
        # eigenvectors of every member would take as much memory as the stack
        stack = random_psd_collection(30, 600, seed=0).matrices
        tracemalloc.start()
        try:
            PsdCollection.from_matrices(stack, validate=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * stack.nbytes

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_gram_matrices_pass(self, n, seed):
        rng = np.random.default_rng(seed)
        assert is_psd(random_psd(rng, n), tol=1e-9)


class TestReduceToIdentity:
    def test_diagonal_pair(self, diag_split):
        red = reduce_to_identity(diag_split)
        assert red.rank == 2
        np.testing.assert_allclose(red.member(0), np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(red.member(1), np.diag([0.0, 1.0]), atol=1e-12)

    def test_identity_collection(self):
        red = reduce_to_identity(PsdCollection.from_matrices([np.eye(4)]))
        assert red.rank == 4
        np.testing.assert_allclose(red.member(0), np.eye(4), atol=1e-12)

    def test_rank_deficient_collapses(self):
        red = reduce_to_identity(PsdCollection.from_matrices([np.diag([1.0, 0.0])]))
        assert red.rank == 1
        np.testing.assert_allclose(red.member(0), [[1.0]], atol=1e-12)

    def test_zero_sum_rejected(self):
        coll = PsdCollection.from_matrices([np.zeros((2, 2))], validate=False)
        with pytest.raises(EmptyProblem):
            reduce_to_identity(coll)

    def test_a_dense_sum_beyond_float64_is_one_typed_error(self):
        # every member is finite, their sum is not
        coll = PsdCollection.from_matrices([np.diag([1e308, 1.0])] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidMatrix, match="^an entry of the sum of the collection"):
                coll.total()

    def test_overflowing_sum_is_not_numerically_zero(self):
        # the sum is finite, but its largest eigenvalue is beyond float64
        big = [[1e308, -1e308], [-1e308, 1.5e308]]
        coll = PsdCollection.from_matrices([np.eye(2), big])
        with pytest.raises(InvalidMatrix, match="overflows float64"):
            reduce_to_identity(coll)

    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_members_sum_to_identity(self, n, m, seed):
        rng = np.random.default_rng(seed)
        coll = PsdCollection.from_matrices(
            [random_psd(rng, n, rank=int(rng.integers(1, 4))) for _ in range(m)],
            validate=False,
        )
        red = reduce_to_identity(coll)
        members = [red.member(j) for j in range(len(red))]
        total = sum(members)
        assert np.linalg.norm(total - np.eye(red.rank), "fro") <= 1e-8 * red.rank
        for c in members:
            assert is_psd(c, tol=1e-9)


class TestSymExp:
    def test_zero(self):
        np.testing.assert_allclose(sym_exp(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_scalar(self):
        np.testing.assert_allclose(sym_exp(np.array([[1.0]])), [[np.e]], atol=1e-14)

    def test_log_diagonal(self):
        out = sym_exp(np.diag([np.log(2.0), np.log(3.0)]))
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-12)

    def test_overflow_guard(self):
        with pytest.raises(ExpOverflow):
            sym_exp(np.diag([800.0, 0.0]))


class TestVerifySandwich:
    def test_all_ones_is_exact(self, diag_split):
        cert = verify_sandwich(diag_split, np.ones(2))
        assert cert.lambda_min == pytest.approx(1.0, abs=1e-7)
        assert cert.lambda_max == pytest.approx(1.0, abs=1e-7)
        assert cert.passes(0.0)

    def test_doubled_weights_fail_small_eps(self, diag_split):
        cert = verify_sandwich(diag_split, 2.0 * np.ones(2))
        assert cert.lambda_min == pytest.approx(2.0, abs=1e-9)
        assert not cert.passes(0.5)

    def test_diagonal_window(self):
        coll = PsdCollection.from_matrices([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        cert = verify_sandwich(coll, np.array([1.0, 1.3]))
        assert cert.lambda_max == pytest.approx(1.3, abs=1e-12)
        assert cert.passes(0.5)
        assert cert.support_size == 2

    def test_negative_weight_rejected(self, diag_split):
        with pytest.raises(NegativeWeight):
            verify_sandwich(diag_split, np.array([1.0, -0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected_on_a_dense_collection(self, bad):
        coll = PsdCollection.from_matrices([np.eye(2), np.eye(2)])
        with pytest.raises(NegativeWeight, match="non-finite"):
            verify_sandwich(coll, np.array([bad, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected_on_a_rows_collection(self, bad):
        coll = PsdCollection.from_rows(2, np.eye(2), [0, 1, 2], np.eye(2))
        with pytest.raises(NegativeWeight, match="non-finite"):
            verify_sandwich(coll, np.array([bad, 1.0]))

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=15),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_ones_property(self, n, m, seed):
        rng = np.random.default_rng(seed)
        coll = PsdCollection.from_matrices(
            [random_psd(rng, n, rank=int(rng.integers(1, 4))) for _ in range(m)],
            validate=False,
        )
        cert = verify_sandwich(coll, np.ones(m))
        assert cert.lambda_min == pytest.approx(1.0, abs=1e-7)
        assert cert.lambda_max == pytest.approx(1.0, abs=1e-7)

    def test_certificate_for_matches(self, diag_split, reduced_pair):
        y = np.array([1.0, 1.2])
        a = verify_sandwich(diag_split, y)
        b = certificate_for(reduced_pair, y)
        assert a.lambda_min == pytest.approx(b.lambda_min, abs=1e-12)
        assert a.lambda_max == pytest.approx(b.lambda_max, abs=1e-12)


class TestPsdCollection:
    def test_rejects_non_psd_members(self):
        with pytest.raises(NotPsd):
            PsdCollection.from_matrices([np.diag([1.0, -1.0])])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            PsdCollection.from_matrices([np.eye(2), np.eye(3)])

    def test_rejects_a_stack_of_the_wrong_shape(self):
        for bad in (np.eye(2), np.zeros((2, 2, 3))):
            with pytest.raises(DimMismatch):
                PsdCollection.from_matrices(bad)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PsdCollection.from_matrices([5.0]),
            lambda: PsdCollection.from_matrices([np.zeros((0, 0))]),
            lambda: PsdCollection.from_matrices(np.zeros((2, 0, 0))),
            lambda: PsdCollection.from_rows(0, np.zeros((1, 0)), [0, 1], np.zeros((0, 0))),
        ],
        ids=["scalar-member", "empty-member", "empty-stack", "rows-of-dimension-0"],
    )
    def test_rejects_members_without_a_dimension(self, build):
        with pytest.raises(DimMismatch):
            build()

    def test_total(self, diag_split):
        np.testing.assert_allclose(diag_split.total(), np.diag([1.0, 2.0]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_members_are_added_in_order(self, n):
        # for n = 1 numpy's sum over axis 0 adds pairwise, which rounds
        # these 40 members differently from a running sum
        rng = np.random.default_rng(7)
        scale = 10.0 ** rng.integers(-6, 6, size=(40, 1, 1))
        stack = np.stack([symmetrize(random_psd(rng, n, rank=n)) for _ in range(40)]) * scale
        running = np.zeros((n, n))
        for member in stack:
            running += member
        assert member_sum(stack).tobytes() == running.tobytes()
        assert PsdCollection.from_matrices(stack).total().tobytes() == running.tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_weighted_members_are_added_in_order(self, n):
        # 150 members span three batches; the zero weights are left out
        rng = np.random.default_rng(n)
        scale = 10.0 ** rng.integers(-6, 6, size=(150, 1, 1))
        stack = np.stack([symmetrize(random_psd(rng, n, rank=n)) for _ in range(150)]) * scale
        y = rng.uniform(0.5, 2.0, 150)
        y[::4] = 0.0
        running = np.zeros((n, n))
        for yi, member in zip(y, stack):
            if yi > 0.0:
                running += yi * member
        got = PsdCollection.from_matrices(stack).weighted_sum(y)
        assert got.tobytes() == running.tobytes()

    def test_symmetric_members_near_the_overflow_threshold_are_kept(self):
        big = np.array([[1e308, -1e308], [-1e308, 1.5e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coll = PsdCollection.from_matrices([np.eye(2), big])
            total = coll.total()
        assert coll.matrices[1].tobytes() == big.tobytes()
        assert np.array_equal(total, np.eye(2) + big)

    def test_other_members_are_averaged_as_before(self):
        # 1e308 + 1.7e308 overflows, but the average 1.35e308 is finite
        skew = np.array([[1.0, 1e308], [1.7e308, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coll = PsdCollection.from_matrices([skew], validate=False)
            with pytest.raises(NotPsd, match="matrix 1"):
                PsdCollection.from_matrices([np.eye(2), skew])
        want = np.array([[1.0, 0.5 * 1e308 + 0.5 * 1.7e308]] * 2)
        want[1] = want[1, ::-1]
        assert np.isfinite(want).all()
        assert coll.matrices[0].tobytes() == want.tobytes() == symmetrize(skew).tobytes()
        half = np.array([[1.0, 0.5], [0.25, 1.0]])
        assert PsdCollection.from_matrices([half]).matrices[0].tobytes() == symmetrize(half).tobytes()


_SDP = "sdp 2 2\nmat 0\n0 0 1\nmat 1\n0 1 0.5\n1 1 1\ntarget\n0 0 0.5\ncost 1 2\nfeasible 1 1\n"
_SIMPLEX = "simplex 2 2\nlambda 0.25 0.75\nmat 0\n0 0 1\nmat 1\n0 0 1\n0 1 0.5\n1 1 1\n"

# the members of every constructor's result
_STACKS = {
    "parse_matrix_collection": lambda: parse_matrix_collection("2 1\nmat 0\n0 0 1\n0 1 0.5\n1 1 1\n").matrices,
    "parse_sdp": lambda: parse_sdp(_SDP).matrices,
    "parse_simplex": lambda: parse_simplex(_SIMPLEX)[1].matrices,
    "random_psd_collection": lambda: random_psd_collection(3, 5, seed=1).matrices,
    "identity_decomposition": lambda: identity_decomposition(3).matrices,
    "sdp": lambda: sdp_lifted_collection(parse_sdp(_SDP)).matrices,
    "simplex": lambda: caratheodory_lifted(*parse_simplex(_SIMPLEX)).matrices,
}

# the collections that are built as factor rows
_ROWS = {
    "edge": lambda: edge_collection(complete_graph(4)),
    "hyperedge": lambda: hyperedge_collection(random_uniform_hypergraph(5, 4, 3)),
    "cost": lambda: cost_lifted_collection(complete_graph(4), [np.arange(6.0)]),
    "family": lambda: family_lifted_collection(
        complete_graph(4), [[(1, 2), (2, 3)], [(3, 4)]]
    ),
}


class TestRowsCollection:
    def test_from_rows_checks_its_parts(self):
        rows, total = np.eye(2), np.eye(2)
        with pytest.raises(EmptyProblem):
            PsdCollection.from_rows(2, np.zeros((0, 2)), [0], np.zeros((2, 2)))
        with pytest.raises(DimMismatch):
            PsdCollection.from_rows(3, rows, [0, 1, 2], total)
        with pytest.raises(DimMismatch):
            PsdCollection.from_rows(2, rows, [0, 2, 1], total)
        with pytest.raises(DimMismatch):
            PsdCollection.from_rows(2, rows, [0, 1], total)
        coll = PsdCollection.from_rows(2, rows, [0, 0, 2], total)
        assert len(coll) == 2 and coll.total() is not None

    def test_a_row_outside_the_given_total_is_rejected(self):
        coll = PsdCollection.from_rows(2, np.eye(2), [0, 1, 2], np.diag([1.0, 0.0]))
        with pytest.raises(NotPsd, match="matrix 1 has range outside"):
            reduce_to_identity(coll)
        with pytest.raises(NotPsd, match="matrix 1 has range outside"):
            verify_sandwich(coll, np.ones(2))

    def test_two_vertex_cliques_and_family_free_lifts_are_edge_rows(self):
        pairs = [(u, v) for u, v, _ in complete_graph(5).edges]
        g = WeightedGraph(n=5, edges=[(u, v, 0.3 * u + v / 7.0) for u, v in pairs])
        h = WeightedHypergraph(n=5, hyperedges=[((u, v), w) for u, v, w in g.edges])
        edges = edge_collection(g)
        for other in (hyperedge_collection(h), family_lifted_collection(g, [])):
            assert other.rows.tobytes() == edges.rows.tobytes()
            assert other.total().tobytes() == edges.total().tobytes()
            assert np.array_equal(other.bounds, edges.bounds)

    @pytest.mark.parametrize("name", ["hyperedge", "cost", "family"])
    def test_whitened_rows_factor_the_members(self, name):
        coll = _ROWS[name]()
        reduced = reduce_to_identity(coll)
        members = whitened_members(coll, reduced)
        for j, c in enumerate(members):
            assert np.linalg.norm(reduced.member(j) - c) <= 1e-12 * np.linalg.norm(c)
            assert reduced.traces[j] == pytest.approx(np.trace(c), rel=1e-12)

    @pytest.mark.parametrize("name", list(_ROWS))
    def test_whitening_rows_decomposes_only_the_sum(self, name, monkeypatch):
        coll = _ROWS[name]()
        calls = []

        def counted(m):
            calls.append(np.array(m, copy=True))
            return eigh(m)

        monkeypatch.setattr(linalg, "eigh", counted)
        reduced = reduce_to_identity(coll)
        assert len(calls) == 1 and np.array_equal(calls[0], coll.total())
        assert reduced.rows.shape == (len(coll.rows), reduced.rank)

    @pytest.mark.parametrize("name", list(_ROWS))
    def test_caller_space_certificate_matches_the_rows(self, name):
        coll = _ROWS[name]()
        y = np.random.default_rng(len(coll)).uniform(0.0, 2.0, len(coll))
        y[::3] = 0.0
        want = certificate_for(reduce_to_identity(coll), y)
        got = verify_sandwich(coll, y)
        scale = 1e-12 * want.lambda_max
        assert got.lambda_min == pytest.approx(want.lambda_min, abs=scale)
        assert got.lambda_max == pytest.approx(want.lambda_max, abs=scale)
        assert got.support_size == want.support_size

    def test_weighted_sum_runs_a_block_of_rows_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 4, 8000)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        rows = rng.standard_normal((bounds[-1], 16))
        y = rng.uniform(0.0, 2.0, len(counts))
        y[::5] = 0.0
        per_row = np.repeat(y, counts)[:, None]
        want = symmetrize(rows.T @ (per_row * rows))
        coll = PsdCollection.from_rows(16, rows, bounds, rows.T @ rows)
        monkeypatch.setattr(linalg, "ROW_BATCH", 64)
        tracemalloc.start()
        try:
            got = coll.weighted_sum(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        # one weighted copy of all the rows would take rows.nbytes
        assert peak <= 0.5 * rows.nbytes


class TestOneStack:
    @pytest.mark.parametrize("name", list(_STACKS) + list(_ROWS))
    def test_every_collection_is_one_stack(self, name):
        if name in _ROWS:
            coll = _ROWS[name]()
            stack = coll.rows
            assert coll.matrices is None
            assert stack.ndim == 2 and stack.shape[1] == coll.dim
            assert coll.bounds.shape == (len(coll) + 1,)
            assert coll.bounds[0] == 0 and coll.bounds[-1] == len(stack)
            assert coll.total().shape == (coll.dim, coll.dim)
        else:
            stack = _STACKS[name]()
            assert stack.ndim == 3 and stack.shape[1] == stack.shape[2]
        assert isinstance(stack, np.ndarray) and stack.dtype == np.float64
        assert stack.flags.c_contiguous

    def test_whitened_members_are_one_row_stack(self):
        coll = random_psd_collection(3, 5)
        reduced = reduce_to_identity(coll)
        rows = reduced.rows
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
        assert rows.ndim == 2 and rows.shape[1] == reduced.rank and rows.flags.c_contiguous
        assert reduced.bounds.shape == (len(coll) + 1,) and reduced.bounds[-1] == len(rows)
        held = [v for v in vars(reduced).values() if isinstance(v, np.ndarray)]
        assert all(v.ndim <= 2 for v in held)

    def test_a_symmetric_stack_is_kept_and_no_input_is_written(self):
        rng = np.random.default_rng(3)
        stack = np.stack([symmetrize(random_psd(rng, 3, rank=2)) for _ in range(4)])
        assert np.shares_memory(PsdCollection.from_matrices(stack).matrices, stack)

        skewed = stack.copy()
        skewed[2, 0, 1] += 1e-9
        before = skewed.copy()
        coll = PsdCollection.from_matrices(skewed)
        assert not np.shares_memory(coll.matrices, skewed)
        assert skewed.tobytes() == before.tobytes()
        assert coll.matrices[2].tobytes() == symmetrize(skewed[2]).tobytes()
        assert coll.matrices[[0, 1, 3]].tobytes() == skewed[[0, 1, 3]].tobytes()

        listed = list(before.copy())
        coll = PsdCollection.from_matrices(listed)
        assert not any(np.shares_memory(coll.matrices, m) for m in listed)
        assert all(m.tobytes() == b.tobytes() for m, b in zip(listed, before))
        assert coll.matrices.tobytes() == PsdCollection.from_matrices(before).matrices.tobytes()


def _dense_scores(members, q, coeffs):
    """<C_j, Q diag(c) Q^T> for every dense member and column c, by einsum."""
    return np.einsum("jab,ak,bk,kc->jc", members, q, q, coeffs)


def _assert_scores_match(reduced, members, rng, columns=2):
    """Both kernels against einsum on the dense whitened ``members``, to 1e-12
    of tr(C_j) times the largest coefficient."""
    r = reduced.rank
    q = eigh(random_sym(rng, r)).eigenvectors
    coeffs = rng.standard_normal((r, columns)) * np.logspace(0, 3, r)[:, None]
    got = reduced.scores_in_basis(q, coeffs)
    bound = 1e-12 * reduced.traces[:, None] * np.abs(coeffs).max(axis=0)
    assert got.shape == (len(reduced), columns)
    assert np.all(np.abs(got - _dense_scores(members, q, coeffs)) <= bound)
    v = random_sym(rng, r)
    want = np.einsum("jab,ab->j", members, v)
    bound = 1e-12 * reduced.traces * np.abs(np.linalg.eigvalsh(v)).max()
    assert np.all(np.abs(reduced.score_all(v) - want) <= bound)


def _with_zero_member(position):
    mats = list(random_psd_collection(4, 9, seed=5).matrices)
    mats.insert(position, np.zeros((4, 4)))
    return PsdCollection.from_matrices(mats)


class TestFactoredScoring:
    @pytest.mark.parametrize("n,m", [(1, 3), (3, 5), (6, 40), (12, 30), (30, 100)])
    def test_random_collections(self, n, m):
        coll = random_psd_collection(n, m, seed=n + m)
        reduced = reduce_to_identity(coll)
        _assert_scores_match(reduced, whitened_members(coll, reduced), np.random.default_rng(m))

    def test_full_rank_member_spanning_1e8(self):
        rng = np.random.default_rng(11)
        n = 6
        q = eigh(random_sym(rng, n)).eigenvectors
        wide = symmetrize((q * np.logspace(0, -8, n)) @ q.T)
        mats = [wide] + [random_psd(rng, n, rank=2) for _ in range(4)]
        reduced = hand_reduced(mats)
        assert reduced.bounds[1] == n  # no eigenvalue of the wide member falls below the cut
        assert 1e-8 > FACTOR_CUT
        _assert_scores_match(reduced, np.stack(mats), rng, columns=3)

    def test_edge_laplacians_give_one_row_each(self):
        coll = edge_collection(complete_graph(5))
        reduced = reduce_to_identity(coll)
        assert reduced.rows.shape == (10, 4)
        assert np.array_equal(reduced.bounds, np.arange(11))
        _assert_scores_match(reduced, whitened_members(coll, reduced), np.random.default_rng(5))

    def test_one_dimensional_coefficients(self):
        reduced = reduce_to_identity(random_psd_collection(4, 8, seed=2))
        q = np.eye(4)
        coeffs = np.arange(1.0, 5.0)
        got = reduced.scores_in_basis(q, coeffs)
        assert got.shape == (8,)
        np.testing.assert_allclose(got, reduced.scores_in_basis(q, coeffs[:, None])[:, 0])

    @pytest.mark.parametrize("position", [0, 4, 9])
    def test_zero_member_scores_exactly_zero(self, position):
        coll = _with_zero_member(position)
        reduced = reduce_to_identity(coll)
        assert reduced.traces[position] == 0.0
        assert reduced.bounds[position] == reduced.bounds[position + 1]
        rng = np.random.default_rng(position)
        q = eigh(random_sym(rng, 4)).eigenvectors
        coeffs = rng.uniform(1.0, 2.0, (4, 2))
        assert np.all(reduced.scores_in_basis(q, coeffs)[position] == 0.0)
        assert reduced.score_all(random_sym(rng, 4))[position] == 0.0
        _assert_scores_match(reduced, whitened_members(coll, reduced), rng)

    @pytest.mark.parametrize("n,m", [(3, 5), (6, 40), (30, 100)])
    def test_weighted_sum_matches_the_dense_sum(self, n, m):
        coll = random_psd_collection(n, m, seed=n)
        reduced = reduce_to_identity(coll)
        y = np.random.default_rng(m).uniform(0.0, 2.0, m)
        y[::3] = 0.0
        got = reduced.weighted_sum(y)
        want = np.tensordot(y, whitened_members(coll, reduced), axes=1)
        assert np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_member_without_positive_eigenvalues_scores_zero(self):
        # -1e-13 I passes the PSD check at its default tolerance
        mats = [np.eye(3), -1e-13 * np.eye(3), np.diag([1.0, 2.0, 0.0])]
        reduced = hand_reduced(mats)
        assert (np.diff(reduced.bounds) > 0).tolist() == [True, False, True]
        scores = reduced.scores_in_basis(np.eye(3), np.ones((3, 2)))
        assert np.all(scores[1] == 0.0)
        np.testing.assert_allclose(scores, [[3.0, 3.0], [0.0, 0.0], [3.0, 3.0]], rtol=1e-15)

    @pytest.mark.parametrize("solve", [bss_sparsify, wf_sparsify, block_sparsify])
    @pytest.mark.parametrize("position", [0, 4, 9])
    def test_zero_member_never_picked(self, solve, position):
        result = solve(reduce_to_identity(_with_zero_member(position)), 0.5)
        assert result.weights[position] == 0.0
        assert np.count_nonzero(result.weights) > 0


# three batches, the last one short
_BATCHED = 2 * FACTOR_BATCH + 5
# ten batches, so ten usable CPUs give ten workers
_TEN_BATCHES = 9 * FACTOR_BATCH + 5
_CPUS = [1, 2, 3, 10]


def _slice_size(cpus):
    """Members per slice with ``cpus`` workers."""
    return -(-FACTOR_BATCH // cpus)


@pytest.fixture(scope="module")
def dense_r30():
    return random_psd_collection(30, 600, seed=1)


class TestThreadedBatches:
    @pytest.mark.parametrize("cpus", _CPUS)
    def test_reduce_matches_serial_factoring_bit_for_bit(self, monkeypatch, cpus):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        coll = random_psd_collection(5, _TEN_BATCHES, seed=8)
        w = whiten(coll)
        serial = ReducedInstance.factored(
            symmetrize(w.T @ coll.matrices[lo : lo + FACTOR_BATCH] @ w)
            for lo in range(0, _TEN_BATCHES, FACTOR_BATCH)
        )
        reduced = reduce_to_identity(coll)
        for name in ("rows", "bounds", "traces"):
            assert getattr(reduced, name).tobytes() == getattr(serial, name).tobytes()

    @pytest.mark.parametrize("cpus", _CPUS)
    @pytest.mark.parametrize(
        "bad",
        [(3, FACTOR_BATCH + 7), (FACTOR_BATCH + 1, 2 * FACTOR_BATCH + 2), (2, 2 * FACTOR_BATCH)]
        # one on each side of a slice boundary at 1, 2, 3 and 10 workers
        + [(_slice_size(w) - 1, _slice_size(w)) for w in _CPUS]
        + [(8 * FACTOR_BATCH + 3, _TEN_BATCHES - 1)],
    )
    def test_not_psd_names_the_lowest_index(self, monkeypatch, cpus, bad):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        stack = random_psd_collection(4, _TEN_BATCHES, seed=9).matrices.copy()
        for k in bad:
            stack[k] = -stack[k]
        with pytest.raises(NotPsd, match=f"matrix {bad[0]} "):
            PsdCollection.from_matrices(stack)

    def test_a_later_failure_never_hides_an_earlier_one(self, monkeypatch):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)
        starts, ran, late = range(0, _BATCHED, _slice_size(3)), [], threading.Event()

        def call(part):
            ran.append(part.start)
            if part.start == starts[-1]:
                late.set()
                raise ValueError("late")
            if part.start == starts[1]:
                late.wait(10.0)  # fails after the last slice did
                raise ValueError("early")
            return part.start

        with pytest.raises(ValueError, match="early"):
            linalg._map_batches(call, _BATCHED)
        assert late.is_set() and 0 in ran
        assert linalg._map_batches(lambda part: part.start, _BATCHED) == list(starts)

    def test_every_batch_runs_once_under_contention(self, monkeypatch):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 8)
        starts, count = [], 300 * FACTOR_BATCH - 1
        members = np.arange(count)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = linalg._map_batches(
                lambda part: starts.append(part.start) or members[part], count
            )
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(np.concatenate(results), members)
        assert max(map(len, results)) == _slice_size(8)
        assert sorted(starts) == list(range(0, count, _slice_size(8)))

    def test_one_batch_starts_no_thread(self, monkeypatch):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(threading, "Thread", Counted)
        coll = random_psd_collection(4, FACTOR_BATCH, seed=10)
        reduce_to_identity(PsdCollection.from_matrices(coll.matrices))
        assert started == []
        # three batches give three workers, whatever the CPU count above that
        coll = PsdCollection.from_matrices(random_psd_collection(4, _BATCHED, seed=10).matrices)
        checked = len(started)
        reduce_to_identity(coll)
        assert 0 < checked <= 3
        assert 0 < len(started) - checked <= 3

    @pytest.mark.parametrize("cpus", [1, 2, 4, 10])
    def test_whitening_peak_is_bounded_by_the_batch(self, monkeypatch, dense_r30, cpus):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        peaks = []
        for _ in range(3):
            tracemalloc.start()
            try:
                reduce_to_identity(dense_r30)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert np.median(peaks) <= 0.45 * dense_r30.matrices.nbytes

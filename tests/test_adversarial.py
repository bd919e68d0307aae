"""Adversarial inputs: every algorithm through ``sparsify_sum``.

Each case transforms a small random collection: member scales spread over
10^+-8, conjugation by diag(10^0 ... 10^-k), every member tripled, or three
rank-one members in dimension 6.  All five algorithms run on it at eps 0.5
and seeds 0-2.  A returned certificate, which the solver computes from its
factor rows, must agree with ``verify_sandwich``, which works in the
caller's space (W^T (sum_i y_i B_i) W) and factors nothing, and with the
extreme eigenvalues of sum_i y_i symmetrize(W^T B_i W), summed from the
caller's dense B_i.  A run that fails must raise a ``SparsifyError``.

Rows collections get the same check against ``verify_sandwich`` from random
small connected graphs and 3-uniform hypergraphs, through
``sparsify_graph`` and ``sparsify_hypergraph``; and through
``sparsify_with_costs`` (the graph's certificate) and
``subgraph_family_sparsify`` (the graph's and each member's certificate).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdsparsify.applications import (
    WeightedGraph,
    WeightedHypergraph,
    cost_lifted_collection,
    edge_collection,
    family_lifted_collection,
    family_members,
    hyperedge_collection,
    sparsify_graph,
    sparsify_hypergraph,
    sparsify_with_costs,
    subgraph_family_sparsify,
)
from psdsparsify.errors import SparsifyError
from psdsparsify.instances import random_psd_collection
from psdsparsify.linalg import PsdCollection, reduce_to_identity, verify_sandwich
from psdsparsify.solve import ALGORITHMS, sparsify_sum

from conftest import whitened_members

# k of the conjugation diag(10^0 ... 10^-k) at seeds 0, 1, 2; at 14 the
# whitening keeps rank 1 on seed 2
CONJUGATION_K = (6, 11, 14)


def scales_spread(seed):
    rng = np.random.default_rng(seed)
    return [m * 10.0 ** rng.uniform(-8.0, 8.0) for m in random_psd_collection(2, 8, seed).matrices]


def conjugated(seed):
    d = np.logspace(0.0, -CONJUGATION_K[seed], 4)
    return [d[:, None] * m * d for m in random_psd_collection(4, 8, seed).matrices]


def tripled(seed):
    return list(random_psd_collection(2, 8, seed).matrices) * 3


def rank_one_in_dimension_6(seed):
    rng = np.random.default_rng(seed)
    return [np.outer(v, v) for v in rng.standard_normal((3, 6))]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize(
    "transform", [scales_spread, conjugated, tripled, rank_one_in_dimension_6],
    ids=lambda f: f.__name__,
)
def test_certificate_matches_recertification(transform, algo, seed):
    coll = PsdCollection.from_matrices(transform(seed))
    try:
        result = sparsify_sum(coll, 0.5, algo, seed=seed)
    except SparsifyError:
        return
    want = verify_sandwich(coll, result.weights)
    got = result.certificate
    assert got.lambda_min == pytest.approx(want.lambda_min, rel=1e-8)
    assert got.lambda_max == pytest.approx(want.lambda_max, rel=1e-8)
    assert got.support_size == want.support_size
    dense = np.linalg.eigvalsh(
        np.tensordot(result.weights, whitened_members(coll, reduce_to_identity(coll)), axes=1)
    )
    assert got.lambda_min == pytest.approx(dense[0], rel=1e-12)
    assert got.lambda_max == pytest.approx(dense[-1], rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rows_reproduce_the_whitened_members(seed):
    # factoring each B_i before whitening misses W^T B_i W by up to 9e-11 here (seed 0)
    coll = PsdCollection.from_matrices(conjugated(seed))
    reduced = reduce_to_identity(coll)
    for j, c in enumerate(whitened_members(coll, reduced)):
        assert np.linalg.norm(reduced.member(j) - c) <= 1e-12 * np.linalg.norm(c)


WEIGHTS = st.floats(0.5, 2.0)

# mmwum-block runs T ~ r / eps^3 steps (about 0.8 s at rank 3 and eps 0.5),
# so it runs only up to this whitened rank
BLOCK_MAX_RANK = 3


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(3, 6))
    # a random spanning tree keeps the graph connected; any other pairs join it
    tree = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    others = [p for p in itertools.combinations(range(1, n + 1), 2) if p not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return WeightedGraph(n=n, edges=[(u, v, draw(WEIGHTS)) for u, v in sorted(tree | set(extra))])


@st.composite
def three_uniform_hypergraphs(draw):
    n = draw(st.integers(4, 6))
    triples = list(itertools.combinations(range(1, n + 1), 3))
    kept = draw(st.lists(st.sampled_from(triples), min_size=1, unique=True))
    return WeightedHypergraph(n=n, hyperedges=[(t, draw(WEIGHTS)) for t in sorted(kept)])


@st.composite
def graphs_with_costs(draw):
    g = draw(connected_graphs())
    return g, [draw(st.lists(WEIGHTS, min_size=g.m, max_size=g.m))]


@st.composite
def graphs_with_families(draw):
    g = draw(connected_graphs())
    member = st.lists(st.sampled_from([(u, v) for u, v, _ in g.edges]), min_size=1, unique=True)
    return g, draw(st.lists(member, min_size=1, max_size=2))


def _every_certificate_matches(run, lifted, certificates=None):
    """Run every algorithm as ``run(algo)`` on the collection ``lifted``.

    ``certificates(result)`` gives (certificate, collection, weights) for
    each certificate the result holds, by default the result's own
    certificate of ``lifted``.  Each must agree with ``verify_sandwich``.
    """
    rank = reduce_to_identity(lifted).rank
    compared = []
    for algo in ALGORITHMS:
        if algo == "mmwum-block" and rank > BLOCK_MAX_RANK:
            continue
        try:
            result = run(algo)
        except SparsifyError:
            continue
        own = [(result.certificate, lifted, result.weights)]
        for got, coll, weights in certificates(result) if certificates else own:
            want = verify_sandwich(coll, weights)
            assert got.lambda_min == pytest.approx(want.lambda_min, rel=1e-8)
            assert got.lambda_max == pytest.approx(want.lambda_max, rel=1e-8)
            assert got.support_size == want.support_size
        compared.append(algo)
    # bss is deterministic and always certifies, so no example passes unchecked
    assert "bss" in compared


@given(connected_graphs())
@settings(max_examples=6, deadline=None)
def test_graph_certificate_matches_recertification(g):
    _every_certificate_matches(lambda algo: sparsify_graph(g, 0.5, algo), edge_collection(g))


@given(three_uniform_hypergraphs())
@settings(max_examples=6, deadline=None)
def test_hypergraph_certificate_matches_recertification(h):
    _every_certificate_matches(
        lambda algo: sparsify_hypergraph(h, 0.5, algo), hyperedge_collection(h)
    )


@given(graphs_with_costs())
@settings(max_examples=6, deadline=None)
def test_cost_certificate_matches_recertification(case):
    g, costs = case
    _every_certificate_matches(
        lambda algo: sparsify_with_costs(g, costs, 0.5, algo),
        cost_lifted_collection(g, costs),
        lambda result: [(result.certificate, edge_collection(g), result.weights)],
    )


@given(graphs_with_families())
@settings(max_examples=6, deadline=None)
def test_family_certificates_match_recertification(case):
    g, family = case
    members = [indices for _, indices in family_members(g, family)]

    def certificates(result):
        assert len(result.member_certificates) == len(members)
        yield result.certificate, edge_collection(g), result.weights
        for cert, indices in zip(result.member_certificates, members):
            member = WeightedGraph(n=g.n, edges=[g.edges[i] for i in indices])
            yield cert, edge_collection(member), result.weights[indices]

    _every_certificate_matches(
        lambda algo: subgraph_family_sparsify(g, family, 0.5, algo),
        family_lifted_collection(g, family),
        certificates,
    )

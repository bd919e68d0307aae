"""Adversarial inputs: every algorithm through ``sparsify_sum``.

Each case transforms a small random collection: member scales spread over
10^+-8, conjugation by diag(10^0 ... 10^-k), every member tripled, or three
rank-one members in dimension 6.  All five algorithms run on it at eps 0.5
and seeds 0-2.  A returned certificate must agree with ``verify_sandwich``
recomputed from the caller's matrices, and a run that fails must raise a
``SparsifyError``.
"""

import numpy as np
import pytest

from psdsparsify.errors import SparsifyError
from psdsparsify.instances import random_psd_collection
from psdsparsify.linalg import PsdCollection, verify_sandwich
from psdsparsify.solve import ALGORITHMS, sparsify_sum

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

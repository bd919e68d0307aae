"""The one-sided sandwich wrapper around the raw algorithms."""

import math

import numpy as np
import pytest

from psdsparsify import solve
from psdsparsify.errors import DegenerateCertificate, SparsifyError
from psdsparsify.instances import random_psd_collection
from psdsparsify.linalg import SandwichCertificate, SparsifierResult


@pytest.mark.parametrize("lam_min", [0.0, -0.25, math.nan, math.inf])
def test_degenerate_lambda_min_raises(monkeypatch, lam_min):
    coll = random_psd_collection(4, 12, seed=0)

    def fake_run(reduced, eps, algo, seed=0, max_seconds=None):
        cert = SandwichCertificate(lambda_min=lam_min, lambda_max=1.2, support_size=len(reduced))
        return SparsifierResult(weights=np.ones(len(reduced)), certificate=cert)

    monkeypatch.setattr(solve, "run_algorithm", fake_run)
    with pytest.raises(DegenerateCertificate) as err:
        solve.sparsify_sum(coll, 0.5)
    assert isinstance(err.value, SparsifyError)

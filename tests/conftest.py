import numpy as np
import pytest

from psdsparsify import bss, linalg, mmwum_wf, scan
from psdsparsify.instances import random_psd_collection
from psdsparsify.linalg import PsdCollection, reduce_to_identity


@pytest.fixture
def diag_split():
    """{diag(1,0), diag(0,2)}: whitens to the two coordinate projectors."""
    return PsdCollection.from_matrices([np.diag([1.0, 0.0]), np.diag([0.0, 2.0])])


@pytest.fixture
def reduced_pair(diag_split):
    return reduce_to_identity(diag_split)


@pytest.fixture
def reduced_random():
    """A 6-dimensional, 30-matrix mixed-rank instance."""
    return reduce_to_identity(random_psd_collection(6, 30, seed=7))


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the matrices decomposed by ``eigh`` in the modules of the scanning solvers."""
    calls = []

    def counting_eigh(m):
        calls.append(m.shape)
        return linalg.eigh(m)

    for module in (scan, bss, mmwum_wf):
        monkeypatch.setattr(module, "eigh", counting_eigh)
    return calls


def random_sym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


def random_psd(rng, n, rank=None):
    k = rank or n
    g = rng.standard_normal((n, k))
    return g @ g.T


def scores_of(reduced, x):
    """<X, C_j> for every member, scored as the solvers score: ``scores_in_basis``
    on X = Q diag(c) Q^T.  Returns the scores and trace(X) = sum(c)."""
    spec = linalg.eigh(x)
    scores = reduced.scores_in_basis(spec.eigenvectors, spec.eigenvalues)
    return scores, float(spec.eigenvalues.sum())

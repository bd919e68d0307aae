import numpy as np
import pytest

from psdsparsify import bss, linalg, mmwum_wf, scan
from psdsparsify.instances import random_psd_collection
from psdsparsify.linalg import PsdCollection, ReducedInstance, reduce_to_identity, symmetrize


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
    """Shapes of the matrices decomposed by ``eigh`` in the modules of the
    scanning solvers and in ``linalg``, where ``certificate_for`` decomposes.

    ``reduce_to_identity`` builds the factor rows, so an instance made
    before the fixture is used decomposes nothing more until it is solved.
    """
    calls = []
    real_eigh = linalg.eigh

    def counting_eigh(m):
        calls.append(m.shape)
        return real_eigh(m)

    for module in (scan, bss, mmwum_wf, linalg):
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


def hand_reduced(members) -> ReducedInstance:
    """A whitened instance factored from the dense ``members`` as they are,
    with the identity as its basis and whitener."""
    members = np.asarray(members, dtype=float)
    eye = np.eye(members.shape[-1])
    return ReducedInstance.factored([members], basis=eye, whitener=eye)


def dense_members(coll) -> np.ndarray:
    """The members of ``coll`` as one (m, n, n) stack: the stack itself for a
    dense collection, F_j^T F_j from the factor rows F_j of a rows collection."""
    if coll.rows is None:
        return coll.matrices
    f, bounds = coll.rows, coll.bounds
    return np.stack([f[lo:hi].T @ f[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])])


def whitened_members(coll, reduced) -> np.ndarray:
    """symmetrize(W^T B_i W) for every member of ``coll``, one at a time, with
    the whitener W of ``reduced``: the dense members its rows factor."""
    w = reduced.whitener
    return np.stack([symmetrize(w.T @ b @ w) for b in dense_members(coll)])

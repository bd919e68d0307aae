"""Independent checks of ``sparsify`` output files.

Nothing here trusts the numbers the program printed: the weights are read
back from the output file and recertified with ``linalg.verify_sandwich``
against the original collection parsed from the input file (for graphs,
the edge Laplacians of ``applications.edge_collection``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from psdsparsify import applications as apps
from psdsparsify import io_formats as io
from psdsparsify.errors import SparsifyError
from psdsparsify.linalg import PsdCollection, verify_sandwich
from psdsparsify.solve import certificate_passes


@dataclass(frozen=True)
class Reference:
    """What an output is checked against: the original B_i and costs."""

    collection: PsdCollection
    raw: bool
    graph: apps.WeightedGraph | None = None
    edge_weights: np.ndarray | None = None
    costs: list | None = None


def load_reference(kind: str, input_path: str, costs_path: str | None = None) -> Reference:
    with open(input_path, encoding="utf-8") as fh:
        text = fh.read()
    if kind == "matrices":
        # the CLI runs matrices unwrapped, under each solver's own window
        return Reference(collection=io.parse_matrix_collection(text), raw=True)
    g = io.parse_graph(text)
    costs = None
    if costs_path is not None:
        with open(costs_path, encoding="utf-8") as fh:
            costs = io.parse_costs(fh.read())
    return Reference(
        collection=apps.edge_collection(g),
        raw=False,
        graph=g,
        edge_weights=np.array([w for _, _, w in g.edges]),
        costs=costs,
    )


@dataclass(frozen=True)
class JobCheck:
    """Verdict on one output; ``reason`` is empty when ``ok``."""

    ok: bool
    reason: str = ""
    support_frac: float | None = None
    lambda_ratio: float | None = None


def parse_weights(text: str, m: int) -> np.ndarray:
    """The weight vector of an output file, zero where no line is given."""
    lines = text.splitlines()
    if f"input m {m}" not in lines:
        raise ValueError(f"output is not for an input with m = {m}")
    start, end = lines.index("weights"), lines.index("certificate")
    y = np.zeros(m)
    for line in lines[start + 1 : end]:
        idx, value = line.split()
        y[int(idx)] = float(value)
    return y


def check_output(ref: Reference, algo: str, eps: float, exit_code, text: str) -> JobCheck:
    """Exit status, ``passed true``, weights, recertification and cost windows."""
    if exit_code != 0:
        return JobCheck(False, f"exit status {exit_code}")
    if not text.endswith("passed true\n"):
        return JobCheck(False, "output does not end with 'passed true'")
    m = len(ref.collection)
    try:
        y = parse_weights(text, m)
    except (ValueError, IndexError) as exc:
        return JobCheck(False, f"unreadable weights: {exc}")
    if not np.all(np.isfinite(y)):
        return JobCheck(False, "non-finite weight")
    if np.any(y < 0.0):
        return JobCheck(False, "negative weight")
    try:
        cert = verify_sandwich(ref.collection, y)
    except SparsifyError as exc:
        return JobCheck(False, f"recertification failed: {exc}")
    passes = certificate_passes(algo, eps, cert) if ref.raw else cert.passes(eps)
    support_frac = float(np.count_nonzero(y)) / m
    ratio = cert.lambda_max / cert.lambda_min if cert.lambda_min > 0.0 else None
    if not passes:
        window = f"[{cert.lambda_min!r}, {cert.lambda_max!r}]"
        return JobCheck(False, f"recertified window {window} misses eps {eps}", support_frac, ratio)
    for i, c in enumerate(ref.costs or ()):
        window = apps.CostWindow(
            original=float(np.sum(ref.edge_weights * c)),
            sparsified=float(np.sum(y * ref.edge_weights * c)),
        )
        if not window.within(eps):
            return JobCheck(False, f"cost {i} {window} misses eps {eps}", support_frac, ratio)
    return JobCheck(True, "", support_frac, ratio)

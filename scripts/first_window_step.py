#!/usr/bin/env python3
"""Replay each deterministic benchmark job and find where its running sum meets a window.

    python3 scripts/first_window_step.py [--seed 1] [--tiny]

Writes the inputs of every benchmark workload for one seed
(``bench/workloads.py``, imported and used as it is, as
``compare_outputs.py`` does) and parses them as the CLI does.  Each job
runs its solver the way ``cli.run`` does: at the raw eps on the
``matrices`` kind, and at ``internal_epsilon(eps)`` on the whitened lift
(the edge or cost lift) for the graph kind.  The script reads the run's
``picks``, the (j, alpha) of every step, adds up alpha C_j step by step
and takes lambda_max / lambda_min of the running sum after each step.

For each job it prints T, the support at T, the ratio at T, and the
first step (with the support there) at which the ratio is within

- the raw window: the ratio ``certificate_passes`` uses for the solver
  at the eps it ran at, ((2 + eps) / (2 - eps))^2 for ``bss`` and
  (1 + eps) / (1 - eps) for the others;
- 1 + eps, at the requested eps: the one-sided window a rescaled result
  must meet.

``--tiny`` runs the workloads at the sizes of ``workloads.tiny``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from psdsparsify import applications as apps
from psdsparsify import cli
from psdsparsify import io_formats as io
from psdsparsify.bss import bss_sparsify
from psdsparsify.linalg import reduce_to_identity
from psdsparsify.mmwum_block import block_sparsify
from psdsparsify.mmwum_wf import wf_sparsify
from psdsparsify.sampling import pe_sparsify
from psdsparsify.solve import internal_epsilon

ROOT = Path(__file__).resolve().parent.parent
SOLVERS = {
    "bss": bss_sparsify,
    "mmwum-wf": wf_sparsify,
    "mmwum-block": block_sparsify,
    "pe": pe_sparsify,
}


def raw_ratio(algo: str, eps: float) -> float:
    """The largest lambda_max / lambda_min ``certificate_passes`` accepts for a raw run."""
    if algo == "bss":
        return ((2.0 + eps) / (2.0 - eps)) ** 2
    return (1.0 + eps) / (1.0 - eps)


def reduced_input(w, inputs):
    """The whitened collection a job of workload ``w`` runs on, and its solver eps."""
    with open(inputs.input, encoding="utf-8") as fh:
        data = cli._PARSERS[w.kind](fh.read())
    if w.kind == "matrices":
        return reduce_to_identity(data), w.eps
    if inputs.costs is None:
        lifted = apps.edge_collection(data)
    else:
        with open(inputs.costs, encoding="utf-8") as fh:
            lifted = apps.cost_lifted_collection(data, io.parse_costs(fh.read()))
    return reduce_to_identity(lifted), internal_epsilon(w.eps)


def first_steps(reduced, picks: list, bounds: tuple) -> tuple:
    """(ratio at T, support at T, and per bound its first (step, support) or None)."""
    a = np.zeros((reduced.rank, reduced.rank))
    picked = set()
    found = [None] * len(bounds)
    ratio = np.inf
    for t, (j, alpha) in enumerate(picks, start=1):
        a = a + alpha * reduced.member(j)
        picked.add(j)
        w = np.linalg.eigvalsh(a)
        ratio = w[-1] / w[0] if w[0] > 0 else np.inf
        for k, bound in enumerate(bounds):
            if found[k] is None and ratio <= bound:
                found[k] = (t, len(picked))
    return ratio, len(picked), found


def describe(hit) -> str:
    return "never" if hit is None else f"step {hit[0]}, support {hit[1]}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true", help="run the workloads at tiny sizes")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for w in workloads.WORKLOADS.values():
            if args.tiny:
                w = workloads.tiny(w)
            sub = Path(tmp) / w.name
            sub.mkdir()
            reduced, eps = reduced_input(w, workloads.write_inputs(w, args.seed, str(sub)))
            for algo in w.algos:
                if algo not in SOLVERS:
                    continue  # aw-sample draws at random and has no steps to replay
                picks = SOLVERS[algo](reduced, eps).picks
                bounds = (raw_ratio(algo, eps), 1.0 + w.eps)
                ratio, support, (raw, target) = first_steps(reduced, picks, bounds)
                print(
                    f"{w.name} seed={args.seed} {algo}: T {len(picks)}, support {support},"
                    f" ratio {ratio:.4f} at T; raw window {bounds[0]:.4f}: {describe(raw)};"
                    f" 1+eps {bounds[1]:.4f}: {describe(target)}",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch command line: parse an input file, sparsify, write a report.

Usage:
    sparsify --algo bss --eps 0.5 --input in.txt --output out.txt
             [--kind matrices|graph|hypergraph|sdp|simplex]
             [--seed 0] [--costs costs.txt] [--family family.txt]

The output file is fully deterministic (derived parameter schedule,
weight lines with 17 significant digits, certificate block); wall time is
printed to stdout only.  Exit status 0 means the certificate met the
requested epsilon (for ``bss`` under its documented ratio bound
((2+eps)/(2-eps))^2), 1 means it did not, 2 means the run failed.
The environment variable SPARSIFY_MAX_MINUTES sets the wall-clock budget
of the solver loop (default 30 minutes, zero or less for none); a run that
exceeds it exits 2.  Every solver checks it once per iteration, and
``aw-sample`` once per draw, in any thread.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import applications as apps
from . import io_formats as io
from .errors import SparsifyError
from .linalg import reduce_to_identity
from .sampling import aw_iteration_count
from .solve import (
    ALGORITHMS,
    DETERMINISTIC,
    SCHEDULES,
    certificate_passes,
    internal_epsilon,
    run_algorithm,
)

KINDS = ("matrices", "graph", "hypergraph", "sdp", "simplex")


@dataclass(frozen=True)
class AlgorithmConfig:
    """CLI-facing knobs; epsilon must lie in (0, 1).

    ``max_minutes`` is the wall-clock budget of the solver loop; zero or
    less means no budget, and NaN is rejected.
    """

    algorithm: str
    epsilon: float
    seed: int = 0
    max_minutes: float = 30.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if math.isnan(self.max_minutes):
            raise ValueError("max_minutes (SPARSIFY_MAX_MINUTES) must be a number, got nan")

    @property
    def max_seconds(self) -> float | None:
        return self.max_minutes * 60.0 if self.max_minutes > 0 else None


@dataclass
class RunReport:
    """Everything one invocation produced, emitted as deterministic text.

    ``result`` carries the weights, the certificate, the verdict and the
    ordered check lines; ``result.lifted_rank`` is the rank reported as
    the input rank.
    """

    algorithm: str
    epsilon: float
    seed: int
    n: int
    m: int
    params: list
    result: apps.Sparsification
    wall_time_s: float = 0.0


def param_dump(algo: str, eps: float, rank: int) -> list:
    """Ordered (name, value) pairs of the derived schedule for one run."""
    if algo in SCHEDULES:
        p = SCHEDULES[algo].from_epsilon(eps, rank)
        return [(f.name, getattr(p, f.name)) for f in fields(p) if f.name not in ("eps", "n")]
    if algo == "aw-sample":
        return [("mu", 1.0 / rank), ("T", aw_iteration_count(rank, eps))]
    raise ValueError(f"unknown algorithm {algo!r}")


def run(config: AlgorithmConfig, data, kind: str = "matrices", costs=None, family=None) -> RunReport:
    """Run one parsed input through the library call its kind maps to."""
    start = time.monotonic()
    algo, eps = config.algorithm, config.epsilon
    kw = dict(algo=algo, seed=config.seed, max_seconds=config.max_seconds)
    if kind == "matrices":
        n, m = data.dim, len(data)
        reduced = reduce_to_identity(data)
        del data  # the solvers read only the whitened rows: free a caller's parsed stack
        raw = run_algorithm(reduced, eps, **kw)
        result = apps.Sparsification(
            weights=raw.weights,
            certificate=raw.certificate,
            lifted_rank=reduced.rank,
            passed=certificate_passes(algo, eps, raw.certificate),
            checks=((f"t_used {raw.t_used}", True),) if algo == "pe" else (),
        )
    elif kind == "graph":
        n, m = data.n, data.m
        if costs is not None and family is not None:
            raise ValueError("--costs and --family are mutually exclusive")
        if costs is not None:
            result = apps.sparsify_with_costs(data, costs, eps, **kw)
        elif family is not None:
            result = apps.subgraph_family_sparsify(data, family, eps, **kw)
        else:
            result = apps.sparsify_graph(data, eps, **kw)
    elif kind == "hypergraph":
        n, m = data.n, data.m
        result = apps.sparsify_hypergraph(data, eps, **kw)
    elif kind == "sdp":
        n, m = data.matrices[0].shape[0], len(data.matrices)
        result = apps.sparse_sdp(data, eps, **kw)
    elif kind == "simplex":
        lam, coll = data
        n, m = coll.dim, len(coll)
        result = apps.caratheodory(lam, coll, eps, **kw)
    else:
        raise ValueError(f"unknown kind {kind!r}; choose from {KINDS}")

    rank = result.lifted_rank
    if kind == "matrices":
        params = param_dump(algo, eps, rank)
    else:
        params = [("internal_epsilon", internal_epsilon(eps))]
        params += param_dump(algo, internal_epsilon(eps), rank)
    return RunReport(
        algorithm=algo,
        epsilon=eps,
        seed=config.seed,
        n=n,
        m=m,
        params=params,
        result=result,
        wall_time_s=time.monotonic() - start,
    )


def emit(report: RunReport) -> str:
    """Deterministic text form of a report (wall time deliberately absent)."""
    result = report.result
    lines = [
        f"input n {report.n}",
        f"input m {report.m}",
        f"input rank {result.lifted_rank}",
        f"algorithm {report.algorithm}",
        f"epsilon {repr(report.epsilon)}",
        f"seed {report.seed}",
    ]
    for name, value in report.params:
        text = str(value) if isinstance(value, int) else f"{value:.16e}"
        lines.append(f"param {name} {text}")
    lines.append(f"deterministic: {'true' if DETERMINISTIC[report.algorithm] else 'false'}")
    lines.append("weights")
    for idx in np.flatnonzero(result.weights > 0.0):
        lines.append(f"{idx} {result.weights[idx]:.16e}")
    cert = result.certificate
    lines.append("certificate")
    lines.append(f"lambda_min {cert.lambda_min:.16e}")
    lines.append(f"lambda_max {cert.lambda_max:.16e}")
    lines.append(f"support_size {cert.support_size}")
    lines.append(f"epsilon_achieved {cert.epsilon_achieved:.16e}")
    lines.extend(line for line, _ in result.checks)
    lines.append(f"passed {'true' if result.passed else 'false'}")
    return "\n".join(lines) + "\n"


_PARSERS = {
    "matrices": io.parse_matrix_collection,
    "graph": io.parse_graph,
    "hypergraph": io.parse_hypergraph,
    "sdp": io.parse_sdp,
    "simplex": io.parse_simplex,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsify",
        description="Sparsify a sum of positive semidefinite matrices.",
    )
    parser.add_argument("--algo", required=True, choices=ALGORITHMS)
    parser.add_argument("--eps", required=True, type=float)
    parser.add_argument("--input", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--kind", default="matrices", choices=KINDS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--costs", default=None, help="cost vectors (graph kind only)")
    parser.add_argument("--family", default=None, help="subgraph family (graph kind only)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = AlgorithmConfig(
            algorithm=args.algo,
            epsilon=args.eps,
            seed=args.seed,
            max_minutes=float(os.environ.get("SPARSIFY_MAX_MINUTES", "30")),
        )
        if (args.costs or args.family) and args.kind != "graph":
            raise ValueError("--costs/--family apply only to --kind graph")
        with open(args.input, encoding="utf-8") as fh:
            parsed = [_PARSERS[args.kind](fh.read())]
        costs = family = None
        if args.costs:
            with open(args.costs, encoding="utf-8") as fh:
                costs = io.parse_costs(fh.read())
        if args.family:
            with open(args.family, encoding="utf-8") as fh:
                family = io.parse_family(fh.read())
        # popped into the call, so that run holds the only reference to the input
        report = run(config, parsed.pop(), kind=args.kind, costs=costs, family=family)
        text = emit(report)  # before open: an emit that raises leaves no empty file
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        result, cert = report.result, report.result.certificate
        print(
            f"{args.algo} on {args.kind} (n={report.n} m={report.m} rank={result.lifted_rank}):"
            f" support {cert.support_size},"
            f" window [{cert.lambda_min:.6f}, {cert.lambda_max:.6f}],"
            f" {'pass' if result.passed else 'FAIL'} in {report.wall_time_s:.2f}s"
        )
        return 0 if result.passed else 1
    except (SparsifyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads and the generator of their input files.

Each workload is one fixed list of ``sparsify`` jobs on inputs made from
the workload seed by the ``instances`` generators and written with the
``io_formats.emit_*`` writers, so the program only ever sees files.  The
workloads are chosen so that one layer does most of the work in each
while the others hardly use it:

- ``dense-r30``: text parsing and candidate scoring (``score_all``);
- ``dense-r8``: tiny ``eigh``/``sym_exp`` calls and per-iteration Python
  overhead, on members of rank above one;
- ``graph-pe``: rank-one candidates and the ``pe`` retry path;
- ``graph-costs``: cost lifting and cost windows, with ``bss`` through
  the one-sided wrapper doing most of the work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from psdsparsify import instances
from psdsparsify import io_formats as io
from psdsparsify.applications import WeightedGraph


@dataclass(frozen=True)
class Workload:
    """One workload: input family, accuracy and job list.

    ``m`` is the member count for ``kind == "matrices"`` and the edge
    count for ``kind == "graph"``; ``rank`` is the whitened rank every
    generated input has.
    """

    name: str
    kind: str
    n: int
    m: int
    rank: int
    eps: float
    algos: tuple
    why: str
    cost_vectors: int = 0

    @property
    def jobs(self) -> int:
        return len(self.algos)

    def summary(self) -> str:
        """One line with every parameter and the reason, as BENCHMARK.json records it."""
        costs = f" costs={self.cost_vectors}" if self.cost_vectors else ""
        algos = ",".join(dict.fromkeys(self.algos))
        return (
            f"{self.kind} n={self.n} m={self.m} r={self.rank}{costs} eps={self.eps}"
            f" algos={algos} jobs/list={self.jobs}: {self.why}"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-r30",
            kind="matrices",
            n=30,
            m=600,
            rank=30,
            eps=0.3,
            algos=("bss", "mmwum-wf"),
            why="parsing a 7 MB file and the score_all candidate scan dominate",
        ),
        Workload(
            name="dense-r8",
            kind="matrices",
            n=8,
            m=160,
            rank=8,
            eps=0.45,
            algos=("mmwum-block", "pe"),
            why="tiny eigh/sym_exp calls and Python overhead per iteration; members of rank 1-4",
        ),
        Workload(
            name="graph-pe",
            kind="graph",
            n=12,
            m=33,
            rank=11,
            eps=0.5,
            algos=("pe",),
            why="rank-one edge candidates, about 1e5 eigh calls, textbook budget fails and the retry runs",
        ),
        Workload(
            name="graph-costs",
            kind="graph",
            n=30,
            m=261,
            rank=31,
            eps=0.5,
            cost_vectors=2,
            algos=("bss",),
            why="the only run of cost lifting and cost windows; bss through the wrapper (T=3100) does most of the work",
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in well under a second."""
    if w.kind == "matrices":
        return replace(w, n=4, m=24, rank=4)
    return replace(w, n=6, m=10, rank=5 + w.cost_vectors)


def _connected(n: int, edges) -> bool:
    adjacent = {v: [] for v in range(1, n + 1)}
    for u, v, _ in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen, stack = {1}, [1]
    while stack:
        for nxt in adjacent[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n


def graph_for(w: Workload, seed: int) -> WeightedGraph:
    """A uniform random connected graph with n vertices and exactly m unit edges.

    The graph workloads stand for G(n, p) at its expected edge count
    m = p n (n - 1) / 2; fixing m keeps the work of a job, and the cost of
    making the input, the same from seed to seed.
    """
    pairs = instances.complete_graph(w.n).edges
    rng = np.random.default_rng(seed)
    while True:
        keep = np.sort(rng.choice(len(pairs), size=w.m, replace=False))
        edges = [pairs[i] for i in keep]
        if _connected(w.n, edges):
            return WeightedGraph(n=w.n, edges=edges)


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated input files."""

    input: str
    costs: str | None = None


def write_inputs(w: Workload, seed: int, directory: str) -> Inputs:
    """Generate the workload's inputs from ``seed`` and write them as files."""
    path = os.path.join(directory, "input.txt")
    if w.kind == "matrices":
        coll = instances.random_psd_collection(w.n, w.m, seed=seed)
        text = io.emit_matrix_collection(coll)
    else:
        text = io.emit_graph(graph_for(w, seed))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if not w.cost_vectors:
        return Inputs(input=path)
    rng = np.random.default_rng([seed, w.cost_vectors])
    costs = [rng.uniform(0.0, 1.0, w.m) for _ in range(w.cost_vectors)]
    costs_path = os.path.join(directory, "costs.txt")
    with open(costs_path, "w", encoding="utf-8") as fh:
        fh.write(io.emit_costs(costs))
    return Inputs(input=path, costs=costs_path)


def job_argv(w: Workload, inputs: Inputs, index: int, seed: int, output: str) -> list:
    """``sparsify`` arguments of job ``index``; each job has its own sampling seed."""
    argv = [
        "--algo", w.algos[index],
        "--eps", repr(w.eps),
        "--input", inputs.input,
        "--output", output,
        "--kind", w.kind,
        "--seed", str(seed * 100 + index),
    ]
    if inputs.costs is not None:
        argv += ["--costs", inputs.costs]
    return argv

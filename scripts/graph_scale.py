#!/usr/bin/env python3
"""Sparsify one large random graph end to end, with its wall time and peak memory.

    python3 scripts/graph_scale.py [--n 500] [--p 0.16] [--seed 0] [--algo aw-sample]
                                   [--eps 0.5] [--work DIR]

Writes ``gnp_graph(n, p, seed)`` as a graph file and runs
``python -m psdsparsify.cli --kind graph`` on it as one subprocess with one
BLAS thread and ``PYTHONPATH`` set to this tree's ``src``.  Prints the
edge count, the exit status, the wall time, the peak resident memory of
the subprocess (``resource.getrusage(RUSAGE_CHILDREN).ru_maxrss``), the
bytes of the edge rows the run holds and the bytes of the (m, n, n) dense
stack of edge Laplacians that it never allocates (40.4 GB at the
defaults, where m is about 20 000).  A tree that builds that stack would
try to allocate it, so run this only on a tree whose edge members are
rows.  With ``--work DIR`` the input and output are kept in DIR.
"""

import argparse
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from psdsparsify import io_formats as io
from psdsparsify.instances import gnp_graph

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--p", type=float, default=0.16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--algo", default="aw-sample")
    parser.add_argument("--eps", type=float, default=0.5)
    parser.add_argument("--work", default=None)
    args = parser.parse_args()

    g = gnp_graph(args.n, args.p, seed=args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp)
        work.mkdir(parents=True, exist_ok=True)
        graph, output = work / "graph.txt", work / "out.txt"
        graph.write_text(io.emit_graph(g), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in THREAD_VARS})
        argv = [
            sys.executable, "-m", "psdsparsify.cli", "--kind", "graph", "--algo", args.algo,
            "--eps", repr(args.eps), "--seed", str(args.seed),
            "--input", str(graph), "--output", str(output),
        ]
        start = time.perf_counter()
        code = subprocess.run(argv, env=env).returncode
        wall = time.perf_counter() - start
        passed = output.exists() and output.read_text(encoding="utf-8").endswith("passed true\n")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"gnp_graph({args.n}, {args.p}, seed={args.seed}): {g.m} edges, {args.algo} eps {args.eps}")
    print(f"exit {code}, passed {'true' if passed else 'false'}")
    print(f"wall_s {wall:.2f}")
    print(f"peak_rss_mb {peak_kb / 1024:.1f}")
    print(f"edge_rows_mb {g.m * g.n * 8 / 1e6:.1f}")
    print(f"dense_stack_gb_not_allocated {g.m * g.n * g.n * 8 / 1e9:.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main())

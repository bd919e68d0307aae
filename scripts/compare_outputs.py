#!/usr/bin/env python3
"""Run the ``sparsify`` CLI from two source trees on the same inputs and compare.

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC [--work DIR] [--algos A,B]

The inputs are small fixtures (three of them with comment and blank lines
between their entry lines, one of these spread over three read batches of
``mat`` blocks; the graph-type ones cover every lift: edges, costs with
and without left-out slots, one and two family members, and 3-uniform
and mixed-size hypergraphs), each run with every algorithm at eps 0.45
and 0.5; malformed fixtures, each run once (``MALFORMED_RUN``): the
spread text with one corruption in its second or third read batch, or
two in different batches, and an ``sdp`` text with a bad line in its
target block; and the inputs of every benchmark workload for seeds 1-3,
each run with that workload's job list (``bench/workloads.py``, imported
and used as it is).  The inputs are written once, with the writers of
CHANGE_SRC.  Every run is one ``python -m psdsparsify.cli`` subprocess
with ``PYTHONPATH`` set to one side's source tree and one BLAS thread,
one run at a time; its stderr is written next to its output, as ``.err``.

Each output gets one line: whether the two files are byte-identical, and
so are the two stderr files, and, if not, a label, the largest relative weight difference (a weight present
on one side only counts as 1) and the relative differences of lambda_min
and lambda_max; the support size on both sides; lambda_max / lambda_min
on both sides (inf where lambda_min is 0); and the exit codes when they
differ; and whether the stderr differs.  A differing output is labelled
``rounding`` when both runs exit with the same code and the same stderr,
keep the same support indices and every weight is within relative
``ROUNDING`` of the other side's, and ``moved`` otherwise.  The count line gives the number of each label.  When any
output differs, a closing line gives the largest of each of the three
relative differences over all differing outputs.  With ``--work DIR``
the inputs and outputs are kept in DIR.  ``--algos`` runs only the runs
of the listed algorithms (comma-separated; default all).

Exits 0 when every output and every stderr is byte-identical and every
run exits with the same code on both sides, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALGORITHMS = ("bss", "mmwum-wf", "mmwum-block", "aw-sample", "pe")
FIXTURE_EPS = (0.45, 0.5)
# the one run of each malformed fixture, which every side must refuse alike
MALFORMED_RUN = ("bss", 0.5)
WORKLOAD_SEEDS = (1, 2, 3)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# largest relative weight difference of an output labelled ``rounding``
ROUNDING = 1e-12
# a comment line and a blank line, put between the lines of some fixtures
GAP = "# a comment\n\n"


def fixture_files(directory: Path) -> dict:
    """name -> (kind, {option: path}) for the fixtures, written into ``directory``."""
    from psdsparsify import instances
    from psdsparsify import io_formats as io

    k4, k5 = (io.emit_graph(instances.complete_graph(n)) for n in (4, 5))
    # twelve 1 x 1 members, whose sums a pairwise summation would round
    # differently from a running sum
    scalars = [10.0 ** ((5 * k) % 7 - 3) / 3.0 for k in range(12)]
    scalar_mats = "".join(f"mat {k}\n0 0 {v!r}\n" for k, v in enumerate(scalars))
    # the commented variants put GAP inside a mat block, before and inside the
    # target block and between lambda and mat 0
    sdp = (
        "sdp 2 3\nmat 0\n0 0 1.0\nmat 1\n1 1 1.0\nmat 2\n0 0 0.5\n{gap}1 1 0.5\n"
        "{gap}target\n0 0 0.5\n{gap}1 1 0.5\ncost 1.0 2.0 0.5\nfeasible 1.0 1.0 1.0\n"
    )
    simplex = (
        "simplex 2 2\nlambda 0.5 0.5\n{gap}mat 0\n0 0 1.0\n{gap}1 1 1.0\n"
        "mat 1\n0 0 2.0\n1 1 2.0\n"
    )
    # 150 blocks of 11 lines with GAP after every 23rd line, so that it falls
    # after headers, between entries and between blocks, in every read batch
    emitted = io.emit_matrix_collection(instances.random_psd_collection(4, 150, seed=5))
    emitted = emitted.splitlines()

    def spread(edits: dict) -> str:
        """The emitted text with GAP, and with line k replaced by edits[k]."""
        return "".join(
            edits.get(k, line) + "\n" + (GAP if k % 23 == 22 else "")
            for k, line in enumerate(emitted)
        )

    def edit(block: int, k: int, make) -> dict:
        """{line number: make(i, j, value)} for entry line k (1 to 10) of ``block``."""
        at = 1 + 11 * block + k
        return {at: make(*emitted[at].split())}

    # one corruption in the second or third read batch of 64 blocks; entry 2
    # of every block is '0 1 value', so '1 0 2.5' repeats it with another value
    duplicate = edit(100, 5, lambda *_: "1 0 2.5")
    malformed = {
        "token": edit(70, 3, lambda i, j, v: f"{i} {j} {v}x"),
        "range": edit(90, 4, lambda i, j, v: f"{i} 4 {v}"),
        "inf": edit(130, 2, lambda i, j, v: f"{i} {j} inf"),
        "duplicate": duplicate,
        "header": {1 + 11 * 80: "mat 81"},
        "comment": edit(120, 6, lambda i, j, v: f"{i} {j} {v} # c"),
        # the earlier corruption wins
        "two-batches": {**duplicate, **edit(140, 2, lambda i, j, v: f"{i} {j} {v}x")},
    }
    texts = {
        "pair": ("matrices", {"input": "2 2\nmat 0\n0 0 1\nmat 1\n1 1 1\n"}),
        "identity4": (
            "matrices",
            {"input": io.emit_matrix_collection(instances.identity_decomposition(4))},
        ),
        "random4x12": (
            "matrices",
            {"input": io.emit_matrix_collection(instances.random_psd_collection(4, 12, seed=3))},
        ),
        "scalars12": ("matrices", {"input": f"1 12\n{scalar_mats}"}),
        "random4x150-commented": ("matrices", {"input": spread({})}),
        "k5": ("graph", {"input": k5}),
        "k6": ("graph", {"input": io.emit_graph(instances.complete_graph(6))}),
        "k4-costs": ("graph", {"input": k4, "costs": "1 6\n1 1 1 1 1 1\n"}),
        "k4-family": ("graph", {"input": k4, "family": "1\n3\n1 2\n2 3\n1 3\n"}),
        # two members sharing the edge 2-3
        "k5-family2": (
            "graph",
            {"input": k5, "family": "2\n3\n1 2\n2 3\n3 4\n3\n2 3\n3 5\n4 5\n"},
        ),
        # zero entries leave out those edges' cost slots
        "k5-costs-sparse": (
            "graph",
            {"input": k5, "costs": "2 10\n1 0 2 0 0.5 3 0 1 0 4\n0 0 1.5 2 0 0 0.25 0 1 0\n"},
        ),
        "hypergraph": (
            "hypergraph",
            {"input": io.emit_hypergraph(instances.random_uniform_hypergraph(6, 8, 3, seed=0))},
        ),
        # sizes 2 to 5 in mixed order, two of them pairs
        "hypergraph-mixed": (
            "hypergraph",
            {
                "input": "7\n3 1 2 3 1.5\n2 2 5 1000.0\n4 1 4 6 7 0.25\n5 2 3 4 5 6 0.001\n"
                "2 3 7 12.5\n3 5 6 7 3.0\n4 1 2 5 7 0.75\n"
            },
        ),
        "sdp": ("sdp", {"input": sdp.format(gap="")}),
        "sdp-commented": ("sdp", {"input": sdp.format(gap=GAP)}),
        "sdp-scalars": (
            "sdp",
            {
                "input": f"sdp 1 12\n{scalar_mats}target\n0 0 1.0\n"
                f"cost {' '.join(str(k % 3 + 1) for k in range(12))}\n"
                f"feasible {' '.join(repr(1.0 / (k % 5 + 1)) for k in range(12))}\n"
            },
        ),
        "simplex": ("simplex", {"input": simplex.format(gap="")}),
        "simplex-commented": ("simplex", {"input": simplex.format(gap=GAP)}),
        "malformed-sdp-target": (
            "sdp",
            {"input": sdp.format(gap=GAP).replace("target\n0 0 0.5", "target\n0 0 abc")},
        ),
        **{f"malformed-{name}": ("matrices", {"input": spread(e)}) for name, e in malformed.items()},
    }
    files = {}
    for name, (kind, parts) in texts.items():
        paths = {}
        for option, text in parts.items():
            path = directory / f"{name}.{option}.txt"
            path.write_text(text, encoding="utf-8")
            paths[option] = str(path)
        files[name] = (kind, paths)
    return files


def jobs(directory: Path, algos=ALGORITHMS) -> list:
    """(name, argv without --output) of every run of an algorithm in ``algos``."""
    out = []
    for name, (kind, paths) in fixture_files(directory).items():
        files = [a for option, path in paths.items() for a in (f"--{option}", path)]
        runs = [MALFORMED_RUN] if name.startswith("malformed-") else [
            (algo, eps) for eps in FIXTURE_EPS for algo in ALGORITHMS
        ]
        for algo, eps in runs:
            if algo in algos:
                argv = ["--algo", algo, "--eps", repr(eps), "--kind", kind, *files]
                out.append((f"{name} {algo} eps={eps}", argv))

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for w in workloads.WORKLOADS.values():
        if not set(w.algos) & set(algos):
            continue
        for seed in WORKLOAD_SEEDS:
            sub = directory / f"{w.name}-{seed}"
            sub.mkdir(exist_ok=True)
            inputs = workloads.write_inputs(w, seed, str(sub))
            for index, algo in enumerate(w.algos):
                if algo not in algos:
                    continue
                argv = workloads.job_argv(w, inputs, index, seed, output="")
                at = argv.index("--output")
                out.append((f"{w.name} seed={seed} {algo}", argv[:at] + argv[at + 2 :]))
    return out


def run_side(src: str, argv: list, output: Path) -> int:
    """Run the CLI on one side; its stderr goes next to ``output``, as ``.err``."""
    env = dict(os.environ, PYTHONPATH=src, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, "-m", "psdsparsify.cli", *argv, "--output", str(output)]
    proc = subprocess.run(cmd, env=env, capture_output=True)
    output.with_suffix(".err").write_bytes(proc.stderr)
    return proc.returncode


def same_file(a: Path, b: Path) -> bool:
    """Whether both files are missing, or both hold the same bytes."""
    return a.exists() == b.exists() and (not a.exists() or a.read_bytes() == b.read_bytes())


def read_output(path: Path):
    """(weights by index, support size, lambda_min, lambda_max), or None."""
    if not path.exists():
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    start, stop = lines.index("weights") + 1, lines.index("certificate")
    weights = {int(i): float(v) for i, v in (line.split() for line in lines[start:stop])}
    fields = dict(line.split(maxsplit=1) for line in lines[stop + 1 :] if " " in line)
    lambdas = float(fields["lambda_min"]), float(fields["lambda_max"])
    return weights, int(fields["support_size"]), *lambdas


def relative(x: float, y: float) -> float:
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))


def weight_difference(a: dict, b: dict) -> float:
    return max((relative(a.get(i, 0.0), b.get(i, 0.0)) for i in a.keys() | b.keys()), default=0.0)


def compare(name: str, parent: Path, change: Path, codes: tuple):
    """Print one line for one output.

    Returns whether the two files, and the two stderr files next to them,
    are byte-identical, the relative differences of the weights,
    lambda_min and lambda_max when they differ and both were read (else
    None), and the label of a differing output (else None).
    """
    same_err = same_file(parent.with_suffix(".err"), change.with_suffix(".err"))
    same = same_err and same_file(parent, change)
    a, b = read_output(parent), read_output(change)
    diffs = label = None
    if not same:
        if a is not None and b is not None:
            diffs = (weight_difference(a[0], b[0]), relative(a[2], b[2]), relative(a[3], b[3]))
        rounding = (
            diffs is not None
            and same_err
            and codes[0] == codes[1]
            and a[0].keys() == b[0].keys()
            and diffs[0] <= ROUNDING
        )
        label = "rounding" if rounding else "moved"
    parts = [f"{name:<34}", "identical" if same else f"DIFFERS  {label}"]
    if a is not None and b is not None:
        if diffs is not None:
            parts.append(f"weight rel diff {diffs[0]:.2e}")
            parts.append(f"lambda_min rel diff {diffs[1]:.2e}")
            parts.append(f"lambda_max rel diff {diffs[2]:.2e}")
        parts.append(f"support {a[1]}/{b[1]}")
        ratios = (x[3] / x[2] if x[2] else float("inf") for x in (a, b))
        parts.append("lambda_max/lambda_min {:.10f}/{:.10f}".format(*ratios))
    if codes[0] != codes[1] or a is None or b is None:
        parts.append(f"exit {codes[0]}/{codes[1]}")
    if not same_err:
        parts.append("stderr differs")
    print("  ".join(parts), flush=True)
    return same, diffs, label


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--work", default=None, help="keep inputs and outputs in this directory")
    parser.add_argument(
        "--algos", default=",".join(ALGORITHMS), help="comma-separated algorithms to run"
    )
    args = parser.parse_args()
    algos = args.algos.split(",")
    unknown = sorted(set(algos) - set(ALGORITHMS))
    if unknown:
        parser.error(f"unknown algorithms {unknown}; choose from {ALGORITHMS}")
    sides = [str(Path(src).resolve()) for src in (args.parent_src, args.change_src)]
    sys.path.insert(0, sides[1])

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp)
        work.mkdir(parents=True, exist_ok=True)
        identical = total = code_changes = 0
        labels = {"rounding": 0, "moved": 0}
        largest = None
        for k, (name, argv) in enumerate(jobs(work, algos)):
            outputs = [work / f"out-{k}-{side}.txt" for side in ("parent", "change")]
            codes = tuple(run_side(src, argv, out) for src, out in zip(sides, outputs))
            same, diffs, label = compare(name, *outputs, codes)
            if label is not None:
                labels[label] += 1
            if diffs is not None:
                largest = diffs if largest is None else tuple(map(max, largest, diffs))
            identical += same
            code_changes += codes[0] != codes[1]
            total += 1
    print(
        f"{identical} of {total} outputs byte-identical, {labels['rounding']} rounding, "
        f"{labels['moved']} moved, {code_changes} exit codes differ"
    )
    if largest is not None:
        print(
            "largest rel diff over the differing outputs: "
            "weights {:.2e}, lambda_min {:.2e}, lambda_max {:.2e}".format(*largest)
        )
    return 0 if identical == total and not code_changes else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time and memory of writing, reading and whitening one ``matrices`` file.

    python3 scripts/io_peak.py [--n 30] [--m 600] [--seed 0]

Builds ``random_psd_collection(n, m)``, then prints, for
``emit_matrix_collection`` and for ``parse_matrix_collection`` on the
emitted text, the best of 5 wall-clock times and the median and the
min-max of the tracemalloc peaks of 5 more calls, as multiples of the
text's length.  For ``reduce_to_identity`` on the parsed collection it
prints the same, its peaks as multiples of the bytes of the collection's
stack, once for each of 1, 2, 4 and 10 usable CPUs (``linalg._usable_cpus``
patched, so the whitening runs on that many threads whatever the machine
has); then the bytes of the arrays the returned ``ReducedInstance`` keeps
(its factor rows, their row bounds and the traces) as a multiple of the
same stack, the number of CPUs the process may use, and the largest
median peak against its bound of ``PEAK_BOUND`` x stack.  The parse
includes the PSD check of the parsed stack.  The defaults match the
``dense-r30`` benchmark input (about 7 MB of text).
"""

import argparse
import time
import tracemalloc
from unittest import mock

import numpy as np

from psdsparsify import linalg
from psdsparsify.instances import random_psd_collection
from psdsparsify.io_formats import emit_matrix_collection, parse_matrix_collection

REPEATS = 5
CPUS = (1, 2, 4, 10)
# the whitening peak bound, as a multiple of the stack, at every CPU count
PEAK_BOUND = 0.45


def measure(call, arg):
    """(best seconds of REPEATS calls, the tracemalloc peak bytes of each of
    REPEATS more calls, the last call's result)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call(arg)
        best = min(best, time.perf_counter() - start)
    peaks = []
    for _ in range(REPEATS):
        tracemalloc.start()
        try:
            result = call(arg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return best, np.array(peaks), result


def report(name, call, arg, size, unit, suffix=""):
    """Print one line for ``measure(call, arg)``, its peaks as multiples of
    ``size``; return the median peak and the result."""
    seconds, peaks, result = measure(call, arg)
    peaks = peaks / size
    print(
        f"{name:6s}  best of {REPEATS}: {seconds:.3f} s  peak median of {REPEATS}: "
        f"{np.median(peaks):.3f} [{peaks.min():.3f}-{peaks.max():.3f}] x {unit}{suffix}"
    )
    return np.median(peaks), result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=30)
    parser.add_argument("--m", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    coll = random_psd_collection(args.n, args.m, seed=args.seed)
    text = emit_matrix_collection(coll)
    print(f"random_psd_collection({args.n}, {args.m}, seed={args.seed}): {len(text)} bytes of text")
    report("emit", emit_matrix_collection, coll, len(text), "text")
    _, parsed = report("parse", parse_matrix_collection, text, len(text), "text")
    stack = parsed.matrices.nbytes
    medians = []
    for cpus in CPUS:
        with mock.patch.object(linalg, "_usable_cpus", lambda: cpus):
            median, reduced = report(
                "whiten", linalg.reduce_to_identity, parsed, stack, "stack", f"  at {cpus} CPUs"
            )
        medians.append(median)
    kept = sum(v.nbytes for v in vars(reduced).values() if isinstance(v, np.ndarray))
    print(
        f"whiten  kept: {kept / stack:.2f} x stack  usable CPUs: {linalg._usable_cpus()}  "
        f"largest peak median: {max(medians):.3f} x stack (bound {PEAK_BOUND})"
    )


if __name__ == "__main__":
    main()

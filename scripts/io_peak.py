#!/usr/bin/env python3
"""Time and memory of writing, reading and whitening one ``matrices`` file.

    python3 scripts/io_peak.py [--n 30] [--m 600] [--seed 0]

Builds ``random_psd_collection(n, m)``, then prints, for
``emit_matrix_collection`` and for ``parse_matrix_collection`` on the
emitted text, the best of 5 wall-clock times and the median and the
min-max of the tracemalloc peaks of 5 more calls, as multiples of the
text's length; and the same for ``reduce_to_identity`` on the parsed
collection, its peaks as multiples of the bytes of the collection's
stack (one call's peak moves with how the whitening threads
interleave), followed by the bytes of the
arrays the returned ``ReducedInstance`` keeps (its factor rows, their
row bounds and the traces) as a multiple of the same stack, and by the
number of CPUs the process may use: each holds one batch of the
whitening at a time, so its peak grows with that number.  The parse
includes the PSD check of the parsed stack.  The defaults match the
``dense-r30`` benchmark input (about 7 MB of text).
"""

import argparse
import time
import tracemalloc

import numpy as np

from psdsparsify.instances import random_psd_collection
from psdsparsify.io_formats import emit_matrix_collection, parse_matrix_collection
from psdsparsify.linalg import _usable_cpus, reduce_to_identity

REPEATS = 5


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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=30)
    parser.add_argument("--m", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    coll = random_psd_collection(args.n, args.m, seed=args.seed)
    text = emit_matrix_collection(coll)
    print(f"random_psd_collection({args.n}, {args.m}, seed={args.seed}): {len(text)} bytes of text")
    parsed = parse_matrix_collection(text)
    for name, call, arg, size, unit in (
        ("emit", emit_matrix_collection, coll, len(text), "text"),
        ("parse", parse_matrix_collection, text, len(text), "text"),
        ("whiten", reduce_to_identity, parsed, parsed.matrices.nbytes, "stack"),
    ):
        seconds, peaks, result = measure(call, arg)
        peaks = peaks / size
        line = (
            f"{name:6s}  best of {REPEATS}: {seconds:.3f} s  peak median of {REPEATS}: "
            f"{np.median(peaks):.3f} [{peaks.min():.3f}-{peaks.max():.3f}] x {unit}"
        )
        if name == "whiten":
            kept = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
            line += f"  kept: {kept / size:.2f} x {unit}  usable CPUs: {_usable_cpus()}"
        print(line)


if __name__ == "__main__":
    main()

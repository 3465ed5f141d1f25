"""Reference figures kept out of the workloads because single operations
would dominate them: exact LDL^T (psd_factor) at N = 30, 60 and 120, the
Motzkin ladder's rungs s^4 M (N = 34) and s^6 M (N = 53), and the d = 3,
three-pole Wronskian pair.

    python3 bench/reference.py [--seed 1]

Prints one line per measurement; the README records a run of it.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import exact as ex  # noqa: E402
import sospencil as sp  # noqa: E402
import workloads  # noqa: E402


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    rng = random.Random(parser.parse_args().seed)

    for n in (30, 60, 120):
        # B B^T with small integer B: an integer Gram matrix of full rank
        B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        A = [[Fraction(sum(a * b for a, b in zip(B[i], B[j]))) for j in range(n)] for i in range(n)]
        seconds, result = timed(lambda: sp.psd_factor(A))
        print(f"psd_factor N={n}: {seconds:.3f} s, PSD={result is not None}")

    M = ex.parse_rendered(workloads.MOTZKIN, 2)
    for power in (4, 6):
        s = ex.power(ex.coordinate_square_sum(2), power, 2)
        F = workloads.to_program(ex.mul(s, M), 2)
        seconds, outcome = timed(lambda: sp.sos_certify(F))
        print(f"sos_certify(s^{power} M): {seconds:.3f} s, {type(outcome).__name__}")

    f = workloads.herglotz(rng, 3, 3)
    P, Q = workloads.to_program(f.p, 3), workloads.to_program(f.q, 3)
    seconds, W = timed(lambda: sp.wronskian(Q, P, 1))
    print(f"d=3 three-pole wronskian: {seconds:.3f} s ({len(W)} terms)")
    seconds, outcome = timed(lambda: sp.sos_certify(W))
    reason = getattr(outcome, "reason", None)
    print(f"d=3 three-pole sos_certify(W_1): {seconds:.3f} s, {type(outcome).__name__}"
          + (f" ({reason})" if reason else ""))
    start = time.perf_counter()
    try:
        sp.wronskian_realization(P, Q, sp.Polynomial.one(3))
        outcome = "realized"
    except sp.SospencilError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    print(f"d=3 three-pole wronskian_realization: {time.perf_counter() - start:.3f} s, {outcome}")


if __name__ == "__main__":
    main()

"""sospencil benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The run builds its inputs from the seed, then repeats whole rounds
of the workload's operations, one at a time in this process (a closed loop
with one client), until the operations have taken ``--seconds`` seconds
and at least 120 have been timed. Between operations it samples the
machine's speed, and it scales every time it reports by that speed (see
speed.py). It then checks every output and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
untraced rounds run first (at least two, for a quarter of the time), then
the timed rounds run with every layer wrapped (see layertrace.py), and the
metrics are the per-layer ones, per traced round. Raw
latencies, outcomes and traces are written under ``bench_runs/``.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()

# numpy's OpenBLAS would otherwise start a thread per core; pin it to one so
# that a run does the same work the same way on every machine.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 6  # extra set-ups measured in fresh processes
# At least forty operations leave a tail beyond the median; 120 give the
# tail at least ten samples beyond it among each workload's largest
# operations, not at the smallest of them.
MIN_TIMED_OPS = 120
TAIL_BEYOND = 10  # the tail percentile has at least this many samples above it


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def setup(args):
    """Import the package and build the inputs; seconds since process start."""
    if not (SRC / "sospencil" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'sospencil'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    ops = workloads.build(args.workload, args.seed)
    return ops, time.perf_counter() - START


def probe_setups(args):
    """Scaled set-up time of fresh processes, each from its first line to
    built inputs."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_round(ops, first, differing, probe):
    """One pass over the operations; returns their (start, latency) pairs.

    The first round's results are kept for checking; a later result is kept
    only if it differs from the first round's.
    """
    from workloads import Raised

    timings = []
    for index, op in enumerate(ops):
        probe.sample_if_due()
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises is recorded, the run goes on
            result = Raised(type(exc).__name__, str(exc))
        timings.append((start, time.perf_counter() - start))
        if len(first) < len(ops):
            first.append(result)
        elif result != first[index]:
            differing.append((index, result))
    return timings


def run_rounds(ops, seconds, first, differing, probe, minimum_ops=MIN_TIMED_OPS):
    rounds, spent = [], 0.0
    while spent < seconds or len(ops) * len(rounds) < minimum_ops:
        rounds.append(run_round(ops, first, differing, probe))
        spent += sum(latency for _, latency in rounds[-1])
    return rounds


def scaled(rounds, probe):
    """Each latency scaled to the machine's nominal speed around it."""
    return [[latency * probe.scale(start, start + latency) for start, latency in r] for r in rounds]


def check(op, result):
    from workloads import Failed, Raised, Wrong

    if isinstance(result, Raised):
        return "failed", f"{result.kind}: {result.message}"
    try:
        op.check(result)
    except Failed as exc:
        return "failed", str(exc)
    except Wrong as exc:
        return "wrong", str(exc)
    except Exception as exc:  # an output the check cannot read is wrong too
        return "wrong", f"{type(exc).__name__}: {exc}"
    return "ok", ""


def versions():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def end_to_end(rounds, rss_mb, setup_s):
    ordered = sorted(x for r in rounds for x in r)
    rate = len(ordered) / sum(ordered)
    return {
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(ordered) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": ordered[-1 - TAIL_BEYOND] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def main():
    args = parse_args()
    ops, own_setup = setup(args)
    from speed import SpeedProbe

    probe = SpeedProbe()
    own_setup *= probe.scale_now()
    if args.setup_probe:
        print(own_setup)
        return 0
    setup_samples = [own_setup] + probe_setups(args)

    first, differing = [], []
    tracer = None
    if args.trace:
        from layertrace import Tracer

        # untraced rounds first; the first of them pays for cold caches
        baseline = run_rounds(ops, args.seconds / 4, first, differing, probe, 2 * len(ops))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(ops, args.seconds, first, differing, probe)
        finally:
            tracer.uninstall()
        rounds = baseline + traced
    else:
        rounds = run_rounds(ops, args.seconds, first, differing, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled_rounds = scaled(rounds, probe)

    statuses = [check(op, result) for op, result in zip(ops, first)]
    failed = len(rounds) * sum(status == "failed" for status, _ in statuses)
    problems = [(i, status, msg) for i, (status, msg) in enumerate(statuses) if status != "ok"]
    for index, result in differing:
        # the program promises identical output for identical input
        status, msg = check(ops[index], result)
        failed += (status == "failed") - (statuses[index][0] == "failed")
        problems.append((index, "wrong", f"output differs from the first round's ({status}: {msg})"))
    for index, status, msg in problems:
        print(f"bench: {ops[index].kind} #{index} {status}: {msg}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(scaled_rounds, rss_mb, statistics.median(setup_samples))
    else:
        untraced, traced_scaled = scaled_rounds[1:len(baseline)], scaled_rounds[len(baseline):]
        overhead = statistics.median(map(sum, traced_scaled)) - statistics.median(map(sum, untraced))
        # one factor for the layers' times: the median scale over the traced operations
        scale = statistics.median(probe.scale(t, t + latency) for r in traced for t, latency in r)
        metrics = tracer.layer_metrics(len(traced), overhead, scale)

    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "versions": versions(),
        "rounds": len(rounds),
        "setup_samples_s": setup_samples,
        "reference_samples": {"starts": probe.starts, "costs_s": probe.costs},
        "ops": [
            {"kind": op.kind, "status": status, "message": msg,
             "starts": [r[i][0] for r in rounds],
             "latencies_s": [r[i][1] for r in rounds],
             "scaled_latencies_s": [r[i] for r in scaled_rounds]}
            for i, (op, (status, msg)) in enumerate(zip(ops, statuses))
        ],
        "metrics": metrics,
    }
    if tracer is not None:
        raw["layers"] = tracer.summary(len(traced))
    out_dir = ROOT / "bench_runs"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(raw, indent=1) + "\n")

    print(json.dumps({
        "correct": all(status != "wrong" for _, status, _ in problems),
        "attempted": sum(map(len, rounds)),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

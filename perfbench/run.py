"""Benchmark entry point: one workload, one run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload sweep3d --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics (see ``BENCHMARK.json`` for both lists). Inputs come from
``--seed``; every output is checked. The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is a record with the environment fingerprint and unbounded notes
(tails with sample counts, units per run).

Exit status: 0 when every output is correct, 1 when any is not, 2 when
the run cannot start (the program under ``src/`` is missing, or BLAS is
not single-threaded); nothing is printed on stdout in the last case.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import env  # must pin BLAS before numpy is imported

env.pin_blas()

from common import SRC  # noqa: E402

WORKLOADS = ("sweep3d", "profile2d", "service")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size (tiny: the self-test's)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    # Every process of the run shares one CPU (children inherit the
    # affinity): the service's client and server then hand a request
    # over by a context switch, not by waking the other virtual CPU,
    # whose wake-up latency varies with the host. The highest CPU is
    # taken because device interrupts land on CPU 0.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    fingerprint = env.fingerprint()
    try:
        env.check_single_threaded(fingerprint)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import warnings

    # Coarse benchmark grids trip the solver's skin-depth resolution
    # warning by design; it is not an error here.
    warnings.simplefilter("ignore", RuntimeWarning)
    if args.workload == "service":
        import service as runner
    else:
        import batch as runner
    outcome = runner.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.size)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "environment": fingerprint,
              "problems": outcome.problems, "notes": outcome.notes}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one idkm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mlp-implicit --seed 0 --seconds 35 --trace 0

Run it from the root of a checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-module metrics with --trace 1.
The line before it holds the run's details (step count, tail percentile,
versions, BLAS threads, any failed check). Exits 2 when idkm cannot be
imported from the checkout's src/ directory, printing no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOAD_NAMES = ("mlp-implicit", "mlp-unrolled", "conv-pipeline")
# One BLAS thread: the step time spreads less than with the default.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy is first imported, or the setting has no effect.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import idkm from the checkout: {exc}", file=sys.stderr)
        return 2

    details, result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

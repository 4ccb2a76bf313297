"""Closed-loop benchmark of the corneafit command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a corneafit checkout; the package is imported from
that checkout's src/. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics, and the exit code is 0
whenever it is printed. Without src/corneafit the run exits with code 1
and prints no result. See README.md beside this file for the workloads
and metrics, and loop.py for how a run is measured.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# BLAS and OpenMP pools would compete for the machine's two cores with
# the single benchmark client; one thread each keeps ops comparable.
# They must be set before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def load_program():
    """Import corneafit from this checkout's src/, never from elsewhere."""
    package = SRC / "corneafit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a corneafit checkout")
    sys.path.insert(0, str(SRC))
    import corneafit.cli

    if Path(corneafit.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported corneafit from {corneafit.__file__}, not {package}")


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in THREAD_VARS:
        os.environ[name] = "1"
    load_program()
    sys.path.insert(0, str(BENCH_DIR))
    import loop
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment()
    print("# env " + json.dumps(env))
    result = loop.measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

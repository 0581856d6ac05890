"""Benchmark entry point.

    python3 perfbench/run.py --workload smoke --seed 1 --seconds 12 --trace 0

Runs one workload in this process with BLAS pinned to one thread and prints
one JSON line per run: a summary (phases with operations attempted and
failed, input descriptors), then the result with ``correct``,
``attempted``, ``failed`` and ``metrics`` as the last line. ``--trace 1``
runs the traced replay instead and also writes its spans and per-span table
under ``.perfbench/traces/``. See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("smoke", "preset", "wide")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gimirec" / "__init__.py").is_file():
        print(f"error: gimirec sources not found under {SRC}", file=sys.stderr)
        return 2
    # before NumPy loads: one BLAS thread, also in the log-generator child
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import harness
    import traced

    workload = harness.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result, summary = traced.run(workload, args.seed, args.seconds, work,
                                         ROOT / ".perfbench" / "traces")
        else:
            result, summary = harness.run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

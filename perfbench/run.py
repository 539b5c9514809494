"""End-to-end benchmark of the repro pipeline.

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 20 --trace 0

Runs one workload (``mc-sweep``, ``transient-durable``, ``signoff``,
``serve-mix``) from the root of a repository checkout for ``--seconds``
of measurement.  Comment lines (``#``) give the human-readable table and
a JSON record with raw medians, calibration samples and the host stamp;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer table with ``--trace 1``.  See ``perfbench/README.md``.
"""

import os
import sys

# One BLAS thread, here and in the server this process spawns; set
# before anything imports numpy.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("mc-sweep", "transient-durable", "signoff", "serve-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from common import emit_result, host_stamp, print_rows

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        stamp = host_stamp(str(work))
        if args.workload == "serve-mix":
            from serve_mix import run_serve_mix as run
        else:
            from library import run_library as run
        outcome = run(args.workload, work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = outcome["metrics"]
    # A metric without a sample (a run too short to reach it) is a failed
    # operation, not a NaN in the result line.
    for name, (value, unit) in list(metrics.items()):
        if not math.isfinite(value):
            metrics[name] = (0.0, unit)
            outcome["attempted"] += 1
            outcome["failed"] += 1
            outcome["failures"].append(f"{name}: no sample in this run")
    title = "per-layer table" if args.trace else "end-to-end metrics"
    print_rows(f"{args.workload} seed={args.seed} {title}",
               [(name, value, unit) for name, (value, unit) in metrics.items()])
    for failure in outcome["failures"][:20]:
        print(f"# failed: {failure}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": stamp, "timings": outcome["record"]}
    print("# record " + json.dumps(record, sort_keys=True))
    emit_result(outcome["failed"] == 0, outcome["attempted"], outcome["failed"],
                metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

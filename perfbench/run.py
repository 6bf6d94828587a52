"""Benchmark of the ncadhm command line.

    python3 perfbench/run.py --workload {symbolic,curvature,pipeline} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics, with ``--trace 1`` one with the
per-layer metrics.  The lines before it give the run environment, every
metric with its unit and the per-subcommand split.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BLAS_THREADS = "1"


def main(argv=None) -> int:
    # one BLAS thread, set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import harness

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (harness.SRC / "ncadhm" / "__init__.py").is_file():
        print(f"error: no ncadhm sources under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))

    report = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    env = report["env"]
    print("env " + json.dumps(env, sort_keys=True))
    units = dict(harness.PER_LAYER if args.trace else harness.END_TO_END)
    shown = dict(report["metrics"])
    if not args.trace:
        shown.update(report["split"])
        units.update((name, "s") for name in report["split"])
    for name, value in shown.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    for argv_, why in report["failures"]:
        print(f"FAILED {' '.join(argv_)}: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": env["failed"] == 0,
        "attempted": env["attempted"],
        "failed": env["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

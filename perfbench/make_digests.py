"""Write perfbench/digests.json: the SHA-256 of the JSON that each seed-free
operation (``relations``, ``twistor-checks``) of every workload emits, for
every pass a run can reach, at full and at smoke size.

    PYTHONPATH=src python3 perfbench/make_digests.py

Rerun it only for an intended change of the CLI's JSON output; the benchmark
counts any other difference as a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import harness
from oracles import digest


def main() -> int:
    harness.OUT_DIR.mkdir(exist_ok=True)
    work = harness.OUT_DIR / f"digests-{os.getpid()}"
    work.mkdir()
    table = {}
    try:
        for workload in harness.WORKLOADS:
            for smoke in (False, True):
                for p in range(harness.MAX_PASSES):
                    for op in harness.build_pass(workload, 0, p, work, {}, smoke):
                        if op.digest_key is None or op.digest_key in table:
                            continue
                        res = harness.execute(op)
                        if res.failure != "no pinned digest for this operation":
                            print(f"{op.digest_key}: {res.failure}", file=sys.stderr)
                            return 1
                        table[op.digest_key] = digest(res.text)
    finally:
        shutil.rmtree(work)
    with open(harness.DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(table)} digests written to {harness.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

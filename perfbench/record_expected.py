"""Record the default seed's per-game output digests in expected.json.

    python3 perfbench/record_expected.py

Every game of every workload's pool is solved once and must pass its check
before its digest is written. Re-record only when the benchmark's game
generators change; a change to the library must reproduce these digests.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    pg = run.load_program()
    expected: dict = {"seed": run.DEFAULT_SEED}
    for name, workload in workloads.WORKLOADS.items():
        digests = []
        for i, item in enumerate(workloads.items(workload, run.DEFAULT_SEED, workload.pool)):
            out = workload.op(pg, item)
            if not workload.check(pg, item, out):
                print(f"{name} game {i} fails its check", file=sys.stderr)
                return 1
            digests.append(workloads.digest(workload.key(out)))
        expected[name] = digests
    run.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

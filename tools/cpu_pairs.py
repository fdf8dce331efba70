"""Paired CPU-time comparison of two checkouts on one benchmark workload.

    python3 tools/cpu_pairs.py PARENT_DIR CHANGE_DIR --workload crosscheck-small --seed 3

Each round runs one worker process per checkout, in alternating order (the
parent first in odd rounds, the change first in even ones). A worker
imports ``perfbench/run.py`` and ``perfbench/workloads.py`` of its own
checkout, so the library comes from that checkout's ``src/``. It generates
the seed's first ``--games`` games and times every op in CPU time
(``time.process_time``) over ``--passes`` passes, keeping each pass's mean
ms per op and reporting the smallest (min of k). The report is the median
over rounds of each checkout's min of k, with the median of the per-round
ratios change / parent. For ``crosscheck-small`` the same is reported per
game family (game i comes from family i mod 4).

Every worker also hashes its ops' outputs with the workload's digest key;
the script exits 1 if the two checkouts' hashes differ. Nothing is
written, under ``perfbench/`` or elsewhere.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def worker(checkout: Path, workload_name: str, seed: int, games: int, passes: int) -> dict:
    """Min-of-k CPU ms per op of one checkout, overall and per family."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(checkout / "perfbench"))
    import run
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    pg = run.load_program()
    pool = workloads.items(workload, seed, games)
    families = list(workload.sizes) if workload_name == "crosscheck-small" else ["all"]
    family_of = [families[i % len(families)] for i in range(len(pool))]
    best: dict[str, float] = {}
    digests = []
    for k in range(passes):
        spent = dict.fromkeys(families, 0.0)
        for i, item in enumerate(pool):
            t0 = time.process_time()
            out = workload.op(pg, item)
            spent[family_of[i]] += time.process_time() - t0
            if k == 0:
                digests.append(workloads.digest(workload.key(out)))
        ms = {"all": 1000 * sum(spent.values()) / len(pool)}
        if families != ["all"]:
            for family in families:
                ms[family] = 1000 * spent[family] / family_of.count(family)
        for name, value in ms.items():
            best[name] = min(best.get(name, value), value)
    return {"ms_per_op": best, "digest": workloads.digest(tuple(digests))}


def run_worker(checkout: Path, args) -> dict:
    command = [
        sys.executable, __file__, "--worker", str(checkout),
        "--workload", args.workload, "--seed", str(args.seed),
        "--games", str(args.games), "--passes", str(args.passes),
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"worker for {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--games", type=int, default=400, help="games per pass")
    parser.add_argument("--passes", type=int, default=5, help="passes per worker (k)")
    parser.add_argument("--rounds", type=int, default=4, help="alternating worker pairs")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        result = worker(args.worker, args.workload, args.seed, args.games, args.passes)
        print(json.dumps(result))
        return 0
    if args.change is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_worker(checkouts[side], args))
        parent, change = (runs[side][-1]["ms_per_op"]["all"] for side in ("parent", "change"))
        print(f"round {r + 1}: parent {parent:.3f}  change {change:.3f}  "
              f"ratio {change / parent:.3f} ms/op")

    print(f"{args.workload}, seed {args.seed}, {args.games} games, "
          f"min of {args.passes} passes, median of {args.rounds} rounds (CPU ms/op):")
    for name in runs["parent"][0]["ms_per_op"]:
        parent = [result["ms_per_op"][name] for result in runs["parent"]]
        change = [result["ms_per_op"][name] for result in runs["change"]]
        ratios = [c / p for p, c in zip(parent, change)]
        print(f"  {name}: parent {statistics.median(parent):.3f}  "
              f"change {statistics.median(change):.3f}  ratio {statistics.median(ratios):.3f}")
    digests = {result["digest"] for side in runs.values() for result in side}
    if len(digests) != 1:
        print(f"outputs differ: {sorted(digests)}")
        return 1
    print("outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())

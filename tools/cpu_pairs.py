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

With ``--opcodes``, one worker per checkout runs one op to warm up, then
counts the Python bytecode instructions executed (``sys.settrace`` with
``frame.f_trace_opcodes``) over the seed's first ``--games`` ops, in total,
per game family for ``crosscheck-small``, and per module of
``src/pathgames`` (by ``co_filename``), then lists the 15 functions of any
module with the most, ranked by the larger of the two checkouts' counts.
A function is matched across checkouts by file and qualified name (code
objects sharing both, such as two lambdas in one function, are summed) and
printed as ``file:function:line`` with its first line in the change, or in
the parent if the change lacks it. ``--passes`` and ``--rounds`` do not
apply. The count is deterministic, so one run per
checkout is enough, but it is not a time: only bytecode is counted, not the
work of C code (sorts, ``heapq``, dict and set building, big-int
arithmetic), and counts differ between interpreter versions, so the report
names ``sys.version``.

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
from collections import Counter
from pathlib import Path
from typing import Iterable


def _setup(checkout: Path, workload_name: str, seed: int, games: int):
    """The checkout's ``workloads`` module, workload, library, seed pool, and
    each game's family (``"all"`` outside ``crosscheck-small``)."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(checkout / "perfbench"))
    import run
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    pg = run.load_program()
    pool = workloads.items(workload, seed, games)
    families = list(workload.sizes) if workload_name == "crosscheck-small" else ["all"]
    family_of = [families[i % len(families)] for i in range(len(pool))]
    return workloads, workload, pg, pool, family_of


def worker(checkout: Path, workload_name: str, seed: int, games: int, passes: int) -> dict:
    """Min-of-k CPU ms per op of one checkout, overall and per family."""
    workloads, workload, pg, pool, family_of = _setup(checkout, workload_name, seed, games)
    families = list(dict.fromkeys(family_of))
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


def opcode_worker(checkout: Path, workload_name: str, seed: int, games: int) -> dict:
    """Bytecode instructions executed per op: in total, per family, per
    library module and per function."""
    workloads, workload, pg, pool, family_of = _setup(checkout, workload_name, seed, games)
    package = Path(pg.model.__file__).parent
    workload.op(pg, pool[0])  # warm-up: lazy imports and per-process caches
    by_code: Counter = Counter()
    by_family: Counter[str] = Counter()

    def opcode(frame, event, arg):
        if event == "opcode":
            by_code[frame.f_code] += 1
        return opcode

    def call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcode

    digests = []
    for item, family in zip(pool, family_of):
        before = sum(by_code.values())
        sys.settrace(call)
        try:
            out = workload.op(pg, item)
        finally:
            sys.settrace(None)
        by_family[family] += sum(by_code.values()) - before
        digests.append(workloads.digest(workload.key(out)))
    by_file: Counter[str] = Counter()
    functions: dict[str, list] = {}  # file:function -> [count, first line]
    for code, n in by_code.items():
        by_file[code.co_filename] += n
        name = f"{Path(code.co_filename).name}:{getattr(code, 'co_qualname', code.co_name)}"
        count, line = functions.get(name, (0, code.co_firstlineno))
        functions[name] = [count + n / len(pool), min(line, code.co_firstlineno)]
    per_op = {"total": sum(by_file.values()) / len(pool)}
    for family, n in by_family.items():
        if family != "all":
            per_op[family] = n / family_of.count(family)
    for name, n in sorted(by_file.items()):
        if Path(name).parent == package:
            per_op[Path(name).name] = n / len(pool)
    return {
        "opcodes_per_op": per_op,
        "functions": functions,
        "digest": workloads.digest(tuple(digests)),
    }


def run_worker(checkout: Path, args) -> dict:
    command = [
        sys.executable, __file__, "--worker", str(checkout),
        "--workload", args.workload, "--seed", str(args.seed),
        "--games", str(args.games), "--passes", str(args.passes),
    ] + ["--opcodes"] * args.opcodes
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"worker for {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--games", type=positive_int, default=400, help="games per pass")
    parser.add_argument("--passes", type=positive_int, default=5, help="passes per worker (k)")
    parser.add_argument("--rounds", type=positive_int, default=4, help="alternating worker pairs")
    parser.add_argument("--opcodes", action="store_true",
                        help="count executed bytecode instructions instead of CPU time")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        if args.opcodes:
            result = opcode_worker(args.worker, args.workload, args.seed, args.games)
        else:
            result = worker(args.worker, args.workload, args.seed, args.games, args.passes)
        print(json.dumps(result))
        return 0
    if args.change is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.opcodes:
        results = {side: run_worker(path, args) for side, path in checkouts.items()}
        report_opcodes(results["parent"], results["change"], args)
        return check_digests(results.values())
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
    return check_digests([result for side in runs.values() for result in side])


def report_opcodes(parent: dict, change: dict, args) -> None:
    version = sys.version.replace("\n", " ")
    print(f"{args.workload}, seed {args.seed}, {args.games} games, "
          f"bytecode instructions per op on Python {version}:")
    parent_ops, change_ops = parent["opcodes_per_op"], change["opcodes_per_op"]
    for name in list(parent_ops) + [name for name in change_ops if name not in parent_ops]:
        print_row(name, parent_ops.get(name, 0), change_ops.get(name, 0))
    functions = {**parent["functions"], **change["functions"]}  # the change's line wins
    counts = [{name: n for name, (n, _) in side["functions"].items()} for side in (parent, change)]
    top = sorted(functions, key=lambda name: (-max(c.get(name, 0) for c in counts), name))[:15]
    print(f"top {len(top)} functions (file:function:line), bytecode instructions per op:")
    for name in top:
        print_row(f"{name}:{functions[name][1]}", *(c.get(name, 0) for c in counts))


def print_row(name: str, p: float, c: float) -> None:
    ratio = f"{c / p:.3f}" if p else "-"
    print(f"  {name}: parent {p:.0f}  change {c:.0f}  ratio {ratio}")


def check_digests(results: Iterable[dict]) -> int:
    """Print whether the workers' outputs agree; 1 if they differ."""
    digests = {result["digest"] for result in results}
    if len(digests) != 1:
        print(f"outputs differ: {sorted(digests)}")
        return 1
    print("outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner for pathgames.

    python3 perfbench/run.py --workload sp-mid --seed 1 --seconds 15 --trace 0

One process, one thread, closed loop: an op starts only after the previous
one finished. The library is imported from ``src/`` of the checkout this
file sits in, never from an installed copy. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run (environment, sizes,
failure fraction, output digest).

``--trace 0`` times ops for ``--seconds`` of busy time and reports the
end-to-end metrics. ``--trace 1`` alternates an untraced and a traced pass
over the workload's first ``trace_ops`` games until ``--seconds`` are spent,
reports per-layer metrics from the spans, and writes the spans of the first
traced pass to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"
RESULTS = HERE / "results"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
PROGRAM_MODULES = ("gamefiles", "model", "oracle", "reductions", "spne", "terminalne", "une")

clock = time.perf_counter


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "debug": __debug__,
        "machine": platform.machine(),
    }


def load_program() -> SimpleNamespace:
    """Import pathgames afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "pathgames" or m.startswith("pathgames.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("pathgames")
    if Path(package.__file__).resolve().parent != SRC / "pathgames":
        raise ImportError(f"pathgames imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"pathgames.{m}") for m in PROGRAM_MODULES}
    )


def setup(workload: workloads.Workload, seed: int, count: int):
    """Import, generate and serialise the pool, and run one untimed op.

    Repeated ``SETUP_REPEATS`` times; the median time is reported and the
    last repetition's program and pool are used.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        pg = load_program()
        pool = workloads.items(workload, seed, count)
        try:
            workload.op(pg, pool[0])
        except Exception:  # the measured loop counts this op's failure
            pass
        times.append(clock() - t0)
    return statistics.median(times), pg, pool


class Ledger:
    """Per-op outcome bookkeeping: exceptions, checks and digests."""

    def __init__(self, workload: workloads.Workload, pg, pool, seed: int):
        self.workload, self.pg, self.pool = workload, pg, pool
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        self.expected = expected.get(workload.name) if seed == expected.get("seed") else None
        self.first: dict[int, str] = {}
        self.verdict: dict[int, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.digest_checked = 0
        self.defect_games = 0

    def record(self, index: int, out) -> None:
        """Count one op as failed if it raised, failed its check, or its
        output differs from the recorded or first output for that game."""
        self.attempted += 1
        if isinstance(out, Exception):
            self.failed += 1
            return
        i = index % len(self.pool)
        try:
            digest = workloads.digest(self.workload.key(out))
            if i not in self.verdict:
                self.verdict[i] = bool(self.workload.check(self.pg, self.pool[i], out))
                if self.workload.defect is not None:
                    self.defect_games += self.workload.defect(self.pg, self.pool[i], out)
            ok = self.verdict[i]
        except Exception as exc:  # a check that cannot run counts as failed
            print(f"check of game {i} raised {exc!r}", file=sys.stderr)
            digest, ok = None, False
        reference = self.first.setdefault(i, digest)
        if self.expected is not None and i < len(self.expected):
            reference = self.expected[i]
            self.digest_checked += 1
        if not ok or digest != reference:
            self.failed += 1

    def run_digest(self) -> str:
        return workloads.digest(tuple(self.first[i] for i in sorted(self.first)))


def timed_op(workload, pg, item):
    t0 = clock()
    try:
        out = workload.op(pg, item)
    except Exception as exc:
        out = exc
    return clock() - t0, out


def measure(workload: workloads.Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_s, pg, pool = setup(workload, seed, workload.pool)
    ledger = Ledger(workload, pg, pool, seed)
    durations = []
    busy = 0.0
    while busy < seconds:
        elapsed, out = timed_op(workload, pg, pool[len(durations) % len(pool)])
        ledger.record(len(durations), out)
        durations.append(elapsed)
        busy += elapsed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = [d * 1000 for d in durations]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    metrics = {
        "ops_per_s": (len(durations) / busy, "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.p90": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    return metrics, {"ledger": ledger, "samples": len(ms)}


def measure_traced(workload: workloads.Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    _, pg, pool = setup(workload, seed, workload.trace_ops)
    ledger = Ledger(workload, pg, pool, seed)
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    while untraced + traced < seconds or tracer.ops == 0:
        for i, item in enumerate(pool):
            elapsed, out = timed_op(workload, pg, item)
            untraced += elapsed
            ledger.record(i, out)
        tracer.install()
        try:
            for i, item in enumerate(pool):
                elapsed, out = timed_op(workload, pg, item)
                tracer.end_op()
                traced += elapsed
                ledger.record(i, out)
        finally:
            tracer.uninstall()
        tracer.keep = False
    values = tracer.metrics(overhead_ratio=traced / untraced)
    metrics = {name: (values[name], unit) for name, unit in tracing.layer_metrics()}
    RESULTS.mkdir(exist_ok=True)
    header = json.dumps({"workload": workload.name, "seed": seed, "env": environment()})
    tracer.write_spans(RESULTS / f"spans-{workload.name}.tsv", header)
    return metrics, {"ledger": ledger, "samples": tracer.ops}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        run = measure_traced if args.trace else measure
        metrics, info = run(workload, args.seed, args.seconds)
    except ImportError as exc:
        print(f"cannot load pathgames from {SRC}: {exc}", file=sys.stderr)
        return 2
    ledger = info["ledger"]
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "sizes": workload.sizes,
        "samples": info["samples"],
        "failed_frac": ledger.failed / ledger.attempted,
        "digest": ledger.run_digest(),
        "digest_checked": ledger.digest_checked,
        "known_defect_games": ledger.defect_games,
    }))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

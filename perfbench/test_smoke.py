"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced on a few tiny games and checks that
every metric named in BENCHMARK.json is reported and that no op failed. One
real command-line run checks the printed result and the recorded digests of
the default seed, and a run from a directory without the library must fail.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TOY_SIZES = {
    "sp-mid": dict(n_pos=8, n_term=2, n_players=3, n_pairs=10, n_exits=2),
    "terminal-large": dict(n_pos=30, n_term=3, n_players=2, n_pairs=36, n_exits=3, ciw=True),
    "crosscheck-small": dict(
        sp=dict(n_pos=4, n_term=1, n_players=2, n_pairs=4, n_exits=2),
        terminal=dict(n_pos=4, n_term=2, n_players=3, n_pairs=4, n_exits=2, ciw=False, n_loops=1),
        ciw=dict(n_pos=4, n_term=2, n_players=2, n_pairs=4, n_exits=2, ciw=True),
        ring=dict(n_pos=4, n_term=2, n_chords=1, n_exits=3),
    ),
}
TOY_SEED = 7  # not the recorded seed: toy games have no recorded digests


def _toy(name: str) -> workloads.Workload:
    return dataclasses.replace(
        workloads.WORKLOADS[name], sizes=TOY_SIZES[name], pool=8, trace_ops=4
    )


def _assert_metrics(metrics: dict, spec: list[dict]) -> None:
    assert sorted(metrics) == sorted(m["name"] for m in spec)
    for m in spec:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert isinstance(value, float) and math.isfinite(value), m["name"]


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_toy_untraced(name):
    metrics, info = run.measure(_toy(name), TOY_SEED, seconds=0.05)
    _assert_metrics(metrics, SPEC["end_to_end"])
    assert info["ledger"].failed == 0
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_toy_traced(name):
    metrics, info = run.measure_traced(_toy(name), TOY_SEED, seconds=0.05)
    _assert_metrics(metrics, SPEC["per_layer"])
    assert info["ledger"].failed == 0
    assert metrics["trace.overhead_ratio"][0] > 0


def test_command_line_run_matches_recorded_digests():
    out = subprocess.run(
        SPEC["command"] + ["--workload", "crosscheck-small", "--seed", str(run.DEFAULT_SEED),
                           "--seconds", "0.3", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert info["failed_frac"] == 0 and info["digest_checked"] > 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        SPEC["command"] + ["--workload", "sp-mid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))

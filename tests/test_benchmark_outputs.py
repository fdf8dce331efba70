"""The library reproduces the benchmark's recorded outputs.

``perfbench/expected.json`` holds a digest of every output of the
benchmark's seed-0 games: situations, and for Theorem 3 also rounds,
potential trajectory and steps. A change that alters any of them in the
first games of a workload fails here, in the main test suite, not only in
a benchmark run. The benchmark files are loaded by path and only read.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name: str):
    """Import a perfbench module by path, registered for this test only."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _outputs(monkeypatch, name: str, games: int):
    """Check the first seed-0 games of a workload; their digests, recorded and computed."""
    # workloads.py imports its generators as the top-level module ``games``
    _load(monkeypatch, "games")
    workloads = _load(monkeypatch, "workloads")
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    assert expected["seed"] == 0
    workload = workloads.WORKLOADS[name]
    pg = SimpleNamespace(**{
        m: importlib.import_module(f"pathgames.{m}")
        for m in ("gamefiles", "model", "oracle", "reductions", "spne", "terminalne", "une")
    })
    found = workloads.items(workload, 0, games)
    digests = []
    for item in found:
        out = workload.op(pg, item)
        assert workload.check(pg, item, out)
        digests.append(workloads.digest(workload.key(out)))
    return found, digests, expected[name][:games]


def test_terminal_large_outputs_match_the_recorded_digests(monkeypatch):
    _, digests, expected = _outputs(monkeypatch, "terminal-large", 20)
    assert digests == expected


def test_sp_mid_outputs_match_the_recorded_digests(monkeypatch):
    found, digests, expected = _outputs(monkeypatch, "sp-mid", 40)
    # every fourth game is solved with the positivity reweighting
    assert sum(item.twin is not None for item in found) == 10
    assert digests == expected


def test_crosscheck_small_outputs_match_the_recorded_digests(monkeypatch):
    _, digests, expected = _outputs(monkeypatch, "crosscheck-small", 40)
    assert digests == expected

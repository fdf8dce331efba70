"""Smoke test of ``tools/cpu_pairs.py`` at toy size."""

from __future__ import annotations

import argparse
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cpu_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("cpu_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_paired_with_itself_reports_every_family():
    command = [
        sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "crosscheck-small",
        "--seed", "0", "--games", "4", "--passes", "2", "--rounds", "2",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["round 1", "round 2"]
    assert lines[2].startswith("crosscheck-small, seed 0, 4 games, min of 2 passes")
    rows = [line.split() for line in lines[3:-1]]
    assert [row[0] for row in rows] == ["all:", "sp:", "terminal:", "ciw:", "ring:"]
    assert all(row[1::2] == ["parent", "change", "ratio"] for row in rows)
    assert lines[-1] == "outputs identical"


def test_opcode_counts_of_one_checkout_are_equal_in_two_runs():
    command = [
        sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "crosscheck-small",
        "--seed", "0", "--games", "4", "--opcodes",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("crosscheck-small, seed 0, 4 games, bytecode instructions per op")
    top = lines.index("top 15 functions (file:function:line), bytecode instructions per op:")
    rows = [line.split() for line in lines[1:top]]
    names = [row[0] for row in rows]
    assert names[:5] == ["total:", "sp:", "terminal:", "ciw:", "ring:"]
    assert {"play.py:", "une.py:", "oracle.py:"} <= set(names[5:])
    functions = [line.split() for line in lines[top + 1:-1]]
    assert len(functions) == 15
    assert all(re.fullmatch(r"[^:\s]+:[\w.<>]+:\d+:", row[0]) for row in functions)
    assert any(row[0].startswith("oracle.py:") for row in functions)
    counts = [int(row[2]) for row in functions]
    assert counts == sorted(counts, reverse=True)
    for row in rows + functions:
        assert row[1::2] == ["parent", "change", "ratio"]
        assert row[2] == row[4] and int(row[2]) > 0 and row[6] == "1.000"
    assert lines[-1] == "outputs identical"


def test_functions_are_matched_across_checkouts_by_file_and_name(capsys):
    # ranked by the larger side's count; the line is the change's, else the parent's
    tool = _load_tool()
    parent = {"opcodes_per_op": {"total": 10.0},
              "functions": {"a.py:f": [6.0, 3], "a.py:g": [4.0, 9]}}
    change = {"opcodes_per_op": {"total": 5.0},
              "functions": {"a.py:f": [3.0, 5], "b.py:C.h": [2.0, 1]}}
    tool.report_opcodes(parent, change, argparse.Namespace(workload="w", seed=0, games=1))
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  total: parent 10  change 5  ratio 0.500",
        "top 3 functions (file:function:line), bytecode instructions per op:",
        "  a.py:f:5: parent 6  change 3  ratio 0.500",
        "  a.py:g:9: parent 4  change 0  ratio 0.000",
        "  b.py:C.h:1: parent 0  change 2  ratio -",
    ]


def test_differing_outputs_exit_1(monkeypatch, capsys):
    tool = _load_tool()
    results = iter([
        {"ms_per_op": {"all": 2.0}, "digest": "a"},
        {"ms_per_op": {"all": 1.0}, "digest": "b"},
    ])
    monkeypatch.setattr(tool, "run_worker", lambda checkout, args: next(results))
    assert tool.main(["p", "c", "--workload", "sp-mid", "--rounds", "1"]) == 1
    out = capsys.readouterr().out
    assert "round 1: parent 2.000  change 1.000  ratio 0.500 ms/op" in out
    assert out.endswith("outputs differ: ['a', 'b']\n")


@pytest.mark.parametrize("flag", ["--games", "--passes", "--rounds"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_counts_below_1_are_usage_errors_before_any_worker(monkeypatch, capsys, flag, value):
    tool = _load_tool()
    monkeypatch.setattr(tool, "run_worker", lambda checkout, args: pytest.fail("worker started"))
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: pytest.fail("process started"))
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["p", "c", "--workload", "crosscheck-small", flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err

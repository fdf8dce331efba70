"""Checks on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pathgames


def test_src_has_no_assert_statements():
    # python -O strips assert statements, so internal checks must raise
    found = []
    for path in sorted(Path(pathgames.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []

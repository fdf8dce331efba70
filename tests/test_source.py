"""Checks on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pathgames


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_src_has_no_assert_statements():
    # python -O strips assert statements, so internal checks must raise; and
    # they raise InternalCheckFailed, which the CLI maps to exit code 5
    found = []
    for path in sorted(Path(pathgames.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert found == []

"""Checks on the library source itself."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pathgames

SRC = Path(pathgames.__file__).parent


def _modules():
    return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


def _names_read(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_src_has_no_assert_statements():
    # python -O strips assert statements, so internal checks must raise; and
    # they raise InternalCheckFailed, which the CLI maps to exit code 5
    found = []
    for path, tree in _modules():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert found == []


def test_every_public_definition_is_used_in_src():
    # a public function or class that only tests read belongs in tests/; a
    # re-export from __init__ counts as a use, a definition's own body does not
    reads = Counter()
    definitions = []
    for path, tree in _modules():
        for stmt in tree.body:
            names = set(_names_read(stmt))
            reads.update(names)
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                definitions.append((path.stem, stmt.name, stmt.name in names))
    assert [f"{module}.{name}" for module, name, own in definitions if reads[name] == own] == []


def _calls_outside_from_ints(tree, names):
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_from_ints"
              for node in ast.walk(fn)}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names and id(node) not in inside]


def test_games_are_built_only_from_their_integer_table():
    # one construction route per game class: _from_ints takes the integer
    # cost table, and nothing derives a table later from Fraction costs
    found = []
    for path, tree in _modules():
        found += [f"{path.name}:{node.lineno}" for node in
                  _calls_outside_from_ints(tree, {"SPGame", "TerminalGame", "cls"})]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name in ("SPGame", "TerminalGame"):
                # dataclasses.replace would copy a game past _from_ints
                found += [f"{path.name}:{node.lineno}"
                          for node in _calls_outside_from_ints(cls, {"replace"})
                          if node.args and isinstance(node.args[0], ast.Name)
                          and node.args[0].id == "self"]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_int_costs"
                  and any("cached_property" in ast.unparse(d) for d in node.decorator_list)]
    assert found == []

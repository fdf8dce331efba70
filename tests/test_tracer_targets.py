"""The benchmark tracer looks up library functions by name.

``perfbench/tracer.py`` wraps every ``(module, name)`` of its ``TARGETS``
with ``getattr``, so deleting or renaming a traced function breaks
``--trace 1`` runs. This test keeps that contract visible in the main test
suite. The tracer uses only the standard library; it is loaded by path and
left unmodified.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.TARGETS
    missing = [
        f"{module}.{name}"
        for module, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"pathgames.{module}"), name, None))
    ]
    assert targets and missing == []

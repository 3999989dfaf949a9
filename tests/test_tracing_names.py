"""perfbench traces evkit functions by name; every name must still exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_are_evkit_callables():
    # Loaded by path, so perfbench/ does not go on sys.path.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    root_module, root_name = tracing.ROOT.split(".")
    assert callable(getattr(importlib.import_module(f"evkit.{root_module}"), root_name, None))
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"evkit.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"evkit.{module}.{name}"

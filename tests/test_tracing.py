"""The benchmark tracer names the fermispec functions it wraps; each must exist."""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> dict:
    """The TRACED literal of perfbench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_every_traced_function_exists():
    """Tracer.install looks up each fermispec.<layer>.<name> with getattr before
    a traced iteration starts, so a moved or renamed function would crash every
    traced benchmark run instead of failing here."""
    traced = _traced()
    assert traced
    missing = [f"fermispec.{layer}.{name}" for layer, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"fermispec.{layer}"), name, None))]
    assert not missing, missing

"""The benchmark tracer wraps quasibraid functions by name.

``bench/tracing.py`` lists them as ``(module, function)`` pairs in ``SPANNED``
and ``COUNTED``.  The pairs are read here with ``ast``, without importing or
running benchmark code, so a rename in the package fails this test instead of
only the traced benchmark runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names():
    tree = ast.parse(TRACING.read_text())
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED")
    }
    assert set(tables) == {"SPANNED", "COUNTED"}
    return [pair for table in tables.values() for pair in table]


@pytest.mark.parametrize("module, function", traced_names())
def test_traced_function_exists(module, function):
    namespace = importlib.import_module(f"quasibraid.{module}")
    assert callable(getattr(namespace, function, None)), f"quasibraid.{module}.{function}"

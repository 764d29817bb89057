"""The benchmark reaches into quasibraid by name.

``bench/tracing.py`` lists the functions it wraps as ``(module, function)``
pairs in ``SPANNED`` and ``COUNTED``; the other bench files import names from
package modules, read ``qb.<name>`` from the package, pass ``stabilize`` to
``track_roots`` and clear ``realization._PLAN_CACHE``.  All of it is read here
with ``ast``, without importing or running benchmark code, so a rename in the
package fails this test instead of only the benchmark runs.  Some of these
reads are guarded (the plan cache is read with ``getattr(..., None)``), so a
rename would otherwise change what the benchmark times without any error.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import quasibraid
from quasibraid import realization

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


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


def bench_trees():
    return [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]


def imported_names():
    return sorted(
        (node.module, alias.name)
        for tree in bench_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("quasibraid.")
        for alias in node.names
    )


def package_names():
    """Every ``qb.<name>`` and ``self.qb.<name>`` the bench files read."""
    names = set()
    for tree in bench_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "qb") or (
                isinstance(owner, ast.Attribute) and owner.attr == "qb"
            ):
                names.add(node.attr)
    return sorted(names)


@pytest.mark.parametrize("module, name", imported_names())
def test_imported_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("name", package_names())
def test_package_name_exists(name):
    assert hasattr(quasibraid, name), f"quasibraid.{name}"


def test_the_bench_reads_names_from_the_package():
    assert len(imported_names()) >= 5
    assert len(package_names()) >= 25


def test_stabilize_is_the_fifth_track_roots_parameter():
    # The bench observer reads it as args[4] when it is passed positionally.
    assert list(inspect.signature(quasibraid.track_roots).parameters)[4] == "stabilize"


def test_the_plan_cache_is_a_dict():
    assert isinstance(realization._PLAN_CACHE, dict)

"""Every function the benchmark's span tracer wraps still exists.

``bench/tracing.py`` names the traced functions per module in ``TRACED``; a
refactor that renames or drops one would otherwise surface only in a traced
benchmark run.  The table is read from the source, so nothing under
``bench/`` is imported or executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED table")


TRACED = [(layer, name) for layer, names in _traced().items() for name in names]


def test_table_is_not_empty():
    assert len(TRACED) > 20


@pytest.mark.parametrize("layer,name", TRACED)
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"matstrata.{layer}")
    assert callable(getattr(module, name, None)), f"matstrata.{layer}.{name}"

"""The numpy-free layers import only the standard library and each other.

``structure``, ``graphs`` and ``parametric``, and the ``_value`` and
``errors`` modules they stand on, reach into no numeric module, at module
level or inside a function, so no graph code path can load numpy.
"""

import ast
import sys
from pathlib import Path

import pytest

import matstrata

PACKAGE = Path(matstrata.__file__).resolve().parent
LIGHT = ("_value", "errors", "graphs", "parametric", "structure")


def imports(tree):
    """(level, dotted module) of each module that ``tree`` imports, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import x
                yield from ((node.level, alias.name) for alias in node.names)
            else:
                yield node.level, node.module


def allowed(level: int, name: str) -> bool:
    top, _, rest = name.partition(".")
    if level == 1:
        return top in LIGHT
    if level == 0 and top == "matstrata":
        return rest.partition(".")[0] in LIGHT
    return level == 0 and top in sys.stdlib_module_names


@pytest.mark.parametrize("module", LIGHT)
def test_light_module_imports_only_the_standard_library_and_light_modules(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    bad = ["." * level + name for level, name in imports(tree) if not allowed(level, name)]
    assert not bad, f"matstrata.{module} imports {bad}"


def test_the_check_sees_nested_and_absolute_imports():
    tree = ast.parse("def f():\n    from .congruence import Block\n    import numpy, matstrata.tangent\n")
    assert [(level, name) for level, name in imports(tree) if not allowed(level, name)] == [
        (1, "congruence"), (0, "numpy"), (0, "matstrata.tangent"),
    ]
    assert allowed(1, "structure") and allowed(0, "itertools") and allowed(0, "matstrata.graphs")

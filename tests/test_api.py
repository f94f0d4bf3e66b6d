"""Package-level checks with the standard library only: every public name
resolves, and no module keeps a top-level import that it never uses."""

import ast
from pathlib import Path

import pytest

import emiscat

PACKAGE = Path(emiscat.__file__).resolve().parent


def test_all_names_resolve():
    missing = [name for name in emiscat.__all__ if not hasattr(emiscat, name)]
    assert missing == []


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that no expression
    reads and ``__all__`` does not export."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read | exported]


def test_unused_import_detection():
    source = ("from __future__ import annotations\nimport os\n"
              "import numpy as np\nfrom .a import b, c\n__all__ = ['c']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

"""Package-level checks with the standard library only: every public name
resolves, no module keeps a top-level import that it never uses, and FFTs
go through the two scipy.fft transforms that the benchmark's tracer
wraps."""

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


FFT_MODULES = {"scipy.fft", "np.fft", "numpy.fft", "scipy.fftpack"}
TRACED_TRANSFORMS = {"scipy.fft.fftn", "scipy.fft.ifftn"}


def _is_transform(name: str) -> bool:
    """FFT-family transform names, not the frequency, shift or size
    helpers."""
    return (any(k in name for k in ("fft", "dct", "dst", "fht"))
            and not any(k in name for k in ("freq", "shift", "fast_len")))


def untraced_transforms(source: str) -> list:
    """Transforms the source reaches other than as scipy.fft.fftn or
    scipy.fft.ifftn: attribute references on an FFT module and imports
    from one, as "line: name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in FFT_MODULES:
            found += [f"{node.lineno}: {node.module}.{a.name}"
                      for a in node.names if _is_transform(a.name)]
        elif isinstance(node, ast.Attribute) and _is_transform(node.attr) \
                and ast.unparse(node.value) in FFT_MODULES:
            name = ast.unparse(node)
            if name not in TRACED_TRANSFORMS:
                found.append(f"{node.lineno}: {name}")
    return found


def test_untraced_transform_detection():
    source = ("import numpy as np\nimport scipy.fft\n"
              "from scipy.fft import rfftn\n"
              "a = scipy.fft.fftn(np.ones(4), axes=(0,))\n"
              "b = scipy.fft.fft(a)\nf = np.fft.fftfreq(4)\n"
              "g = scipy.fft.ifftn\nh = np.fft.ifftn(a)\n")
    assert untraced_transforms(source) == [
        "3: scipy.fft.rfftn", "5: scipy.fft.fft", "8: np.fft.ifftn"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_transforms_are_traced(path):
    assert untraced_transforms(path.read_text()) == []

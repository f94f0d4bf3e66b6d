"""Package-level checks with the standard library only: every public name
resolves, lazily, from its home module, an import loads only the modules
its entry point runs, no module keeps a top-level import that it never
uses or an ``assert`` statement (``python -O`` strips them), FFTs go
through the two scipy.fft transforms that the benchmark's tracer wraps,
and every package name the tracer's metrics read still exists."""

import ast
import fnmatch
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import emiscat

PACKAGE = Path(emiscat.__file__).resolve().parent


def test_all_names_resolve():
    missing = [name for name in emiscat.__all__ if not hasattr(emiscat, name)]
    assert missing == []


def test_lazy_exports():
    assert sorted(emiscat._HOME) == sorted(emiscat.__all__)
    for name in emiscat.__all__:
        home = importlib.import_module(f"emiscat.{emiscat._HOME[name]}")
        assert getattr(emiscat, name) is getattr(home, name), name
    assert set(emiscat.__all__) <= set(dir(emiscat))
    namespace = {}
    exec("from emiscat import *", namespace)
    assert [n for n in emiscat.__all__ if n not in namespace] == []
    with pytest.raises(AttributeError, match="'no_such_name'"):
        emiscat.no_such_name


def fresh_modules(statement: str) -> list:
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = (f"{statement}\nimport json, sys\n"
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def below(*names) -> tuple:
    """Patterns for each module name and everything inside it."""
    return tuple(p for n in names for p in (n, f"{n}.*"))


# (statement, patterns of the modules it must not load)
IMPORT_GRAPH = {
    "package": ("import emiscat", ("emiscat.*",) + below("scipy")),
    "cgo-vsc": ("import emiscat.cgo, emiscat.vsc",
                below("scipy.sparse", "scipy.optimize", "emiscat.forward",
                      "emiscat.inversion")),
    "cli": ("import emiscat.cli", below("scipy.optimize")),
}


@pytest.mark.parametrize("statement, forbidden", IMPORT_GRAPH.values(),
                         ids=list(IMPORT_GRAPH))
def test_import_graph(statement, forbidden):
    leaked = [m for m in fresh_modules(statement)
              if any(fnmatch.fnmatchcase(m, p) for p in forbidden)]
    assert not leaked, f"{statement!r} loaded {', '.join(leaked)}"


def test_submodule_after_bare_import():
    modules = fresh_modules("import emiscat\nemiscat.forward.SphereGrid")
    assert "emiscat.forward" in modules


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports, including those
    under ``if TYPE_CHECKING:``, that no expression reads and ``__all__``
    does not export."""
    tree = ast.parse(source)
    bound = []
    nodes = []
    for node in tree.body:
        if isinstance(node, ast.If) \
                and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            nodes += node.body
        else:
            nodes.append(node)
    for node in nodes:
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
    guarded = ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
               "    from .a import d, e\ndef f(x: d): ...\n")
    assert unused_imports(guarded) == ["e"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def assert_lines(source: str) -> list:
    """Lines of the source's ``assert`` statements, which ``python -O``
    strips."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_assert_detection():
    source = ("def f(x):\n    assert x > 0, 'x'\n    return x\n"
              "y = 'assert'\nassert f(1)\n")
    assert assert_lines(source) == [2, 5]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_asserts(path):
    assert assert_lines(path.read_text()) == []


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


SPANS = PACKAGE.parents[1] / "bench" / "spans.py"
# the tracer wraps this name itself to read the iteration count
WRAPPED_BY_NAME = ("inversion.minimize",)
# the metric cgo.rotate_index_s still reads a function that is gone, so it
# always reads 0; remove the entry once the tracer drops it
KNOWN_MISSING = ["cgo.rotate_index"]


def traced_names(source: str) -> list:
    """The distinct "module.Qual.name" strings passed to ``calls`` and ``secs`` in a
    tracer source, directly or through a starred tuple variable, whose
    module is one of the tracer's ``MODULES``."""
    tree = ast.parse(source)
    tuples = {node.targets[0].id: node.value for node in ast.walk(tree)
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Tuple)}
    modules = ast.literal_eval(tuples["MODULES"])
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("calls", "secs"):
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    names += ast.literal_eval(tuples[arg.value.id])
                else:
                    names.append(ast.literal_eval(arg))
    return sorted({n for n in names if n.split(".")[0] in modules})


def missing_names(names) -> list:
    """Names "module.Qual.name" that do not resolve in ``emiscat``."""
    missing = []
    for name in sorted(set(names)):
        module, *path = name.split(".")
        obj = importlib.import_module(f"emiscat.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    return missing


def test_traced_name_detection():
    source = ("MODULES = ('forward', 'inversion')\n"
              "def layer_metrics(summary, tally):\n"
              "    writes = ('inversion.no_such_writer',)\n"
              "    return (calls('forward.ScatteringSolver.solve')\n"
              "            + secs('inversion._ForwardState.adjoint_solve')\n"
              "            + secs(*writes) + calls('scipy_fft.fftn'))\n")
    names = traced_names(source)
    assert names == ["forward.ScatteringSolver.solve",
                     "inversion._ForwardState.adjoint_solve",
                     "inversion.no_such_writer"]
    assert missing_names(names) == ["inversion.no_such_writer"]


def test_traced_names_resolve():
    names = traced_names(SPANS.read_text()) + list(WRAPPED_BY_NAME)
    assert len(names) > 10
    assert missing_names(names) == KNOWN_MISSING

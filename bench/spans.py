"""In-memory span tracer that wraps the emiscat package from outside.

``Tracer.install`` replaces the functions and methods of every emiscat
module with timing wrappers, rebinding each name wherever another module
imported it, and wraps the package's calls into ``scipy.fft`` and
``scipy.optimize.minimize``.  Each call becomes one span (name, start, end,
parent) kept in flat lists; nothing is written until ``dump``.  A few
boundaries also tally counts read off their arguments or results, so that
ratios are measured where the work happens.

``layer_metrics`` turns the spans into the per-layer metrics of
``BENCHMARK.json``.  A span's self time is its duration minus the part of
its interval that its children cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
import os
import threading
import time
from collections import defaultdict

MODULES = ("fourier", "forward", "spherical", "cgo", "vsc", "inversion",
           "io", "cli")

# private callables that carry a per-layer metric; everything public is
# traced anyway
PRIVATE = {
    "forward": ("ScatteringSolver._matvec",),
    "inversion": ("_ForwardState",),
}


def _fft_flop(args, kwargs, result):
    n = args[0].size
    return "scipy_fft.flop", 5.0 * n * math.log2(n) if n > 1 else 0.0


def _bytes_written(args, kwargs, result):
    return "io.bytes", float(os.path.getsize(args[0]))


def _neumann_iters(args, kwargs, result):
    # one contraction ratio per iteration after the first
    return "cgo.neumann_iters", float(len(result.contraction) + 1)


def _lbfgs_iters(args, kwargs, result):
    return "inversion.lbfgs_iters", float(result.nit)


TALLIES = {
    "scipy_fft.fftn": _fft_flop,
    "scipy_fft.ifftn": _fft_flop,
    "io.write_field": _bytes_written,
    "io.write_data": _bytes_written,
    "io.write_far_coeffs": _bytes_written,
    "cgo.cgo_solve": _neumann_iters,
    "scipy_optimize.minimize": _lbfgs_iters,
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.tally: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        sid = self._ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        tally = TALLIES.get(name)
        clock = time.perf_counter
        lock = self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with lock:
                k = len(self.start)
                self.name_id.append(sid)
                self.parent.append(stack[-1] if stack else -1)
                self.end.append(math.nan)
                self.start.append(clock())
            stack.append(k)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[k] = clock()
                stack.pop()
            if tally is not None:
                key, value = tally(args, kwargs, result)
                with lock:
                    self.tally[key] += value
            return result

        return traced

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def _rebind(self, owner, attr, obj, replaced):
        hit = replaced.get(id(obj))
        if hit is not None and hit[0] is obj:
            self._set(owner, attr, hit[1])

    def install(self):
        """Wrap every traced callable and rebind all references to it."""
        import scipy.fft

        mods = {m: importlib.import_module(f"emiscat.{m}") for m in MODULES}
        package = importlib.import_module("emiscat")
        replaced = {}  # id(original) -> wrapper, for rebinding imports
        for short, mod in mods.items():
            extra = PRIVATE.get(short, ())
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                public = not attr.startswith("_") or attr in extra
                if isinstance(obj, type):
                    if public:
                        self._wrap_class(short, obj, extra)
                elif callable(obj) and public:
                    wrapper = self.wrap(f"{short}.{attr}", obj)
                    replaced[id(obj)] = (obj, wrapper)
        for mod in list(mods.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                self._rebind(mod, attr, obj, replaced)
                if isinstance(obj, dict):  # dispatch tables such as RUNNERS
                    for key, value in list(obj.items()):
                        self._rebind(obj, key, value, replaced)
        for attr in ("fftn", "ifftn"):
            self._set(scipy.fft, attr,
                      self.wrap(f"scipy_fft.{attr}", getattr(scipy.fft, attr)))
        inv = mods["inversion"]
        self._set(inv, "minimize",
                  self.wrap("scipy_optimize.minimize", inv.minimize))

    def _wrap_class(self, short, cls, extra):
        private_class = cls.__name__.startswith("_")
        for attr, obj in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if attr.startswith("__"):
                # generated dataclass initialisers only copy arguments
                if attr not in ("__init__", "__call__") or (
                        attr == "__init__" and dataclasses.is_dataclass(cls)):
                    continue
            elif attr.startswith("_") and not private_class \
                    and qual not in extra:
                continue
            name = f"{short}.{qual}"
            if isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(name,
                                                            obj.__func__)))
            elif callable(obj) and not isinstance(obj, type):
                self._set(cls, attr, self.wrap(name, obj))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def dump(self, path):
        """Write the spans as JSON: names, then one [name, start, end,
        parent] row per span, times in seconds."""
        rows = [[self.names[i], s, e, p] for i, s, e, p in
                zip(self.name_id, self.start, self.end, self.parent)]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": rows, "tally": dict(self.tally)}, fh)

    def summary(self):
        """Per span name: outermost calls and inclusive seconds (nested
        calls of the same name are not counted twice) and total self
        seconds."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        children = defaultdict(list)
        for k, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(k)
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k in range(n):
            name = self.name_id[k]
            p = self.parent[k]
            while p >= 0 and self.name_id[p] != name:
                p = self.parent[p]
            rec = out[self.names[name]]
            if p < 0:
                rec["calls"] += 1
                rec["s"] += dur[k]
            rec["self_s"] += dur[k] - _covered(
                [(self.start[c], self.end[c]) for c in children.get(k, ())])
        return dict(out)


def _covered(intervals):
    """Length of the union of intervals."""
    total, reach = 0.0, -math.inf
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def layer_metrics(summary: dict, tally: dict) -> dict:
    """Per-layer metric values (name -> value) from a span summary."""
    def calls(name):
        return float(summary.get(name, {}).get("calls", 0))

    def secs(*names):
        return sum(summary.get(n, {}).get("s", 0.0) for n in names)

    def self_secs(prefix):
        return sum(v["self_s"] for k, v in summary.items()
                   if k.startswith(prefix + "."))

    solves = calls("forward.ScatteringSolver.solve")
    potentials = calls("forward.ScatteringSolver.potential")
    potential_s = secs("forward.ScatteringSolver.potential")
    io_writes = ("io.write_field", "io.write_data", "io.write_far_coeffs")
    return {
        "forward.solver_build_s": secs("forward.ScatteringSolver.__init__"),
        "forward.solver_builds": calls("forward.ScatteringSolver.__init__"),
        "forward.potential_s": potential_s,
        "forward.potential_calls": potentials,
        "forward.potential_ms": 1e3 * potential_s / potentials
        if potentials else 0.0,
        "forward.solve_s": secs("forward.ScatteringSolver.solve"),
        "forward.solves": solves,
        "forward.matvecs_per_solve":
            calls("forward.ScatteringSolver._matvec") / solves
            if solves else 0.0,
        "forward.far_pattern_s": secs("forward.ScatteringSolver.far_pattern"),
        "forward.far_pattern_calls":
            calls("forward.ScatteringSolver.far_pattern"),
        "forward.scattered_at_s": secs("forward.ScatteringSolver.scattered_at"),
        "forward.self_s": self_secs("forward"),
        "inversion.objective_evals": calls("inversion.misfit_gradient"),
        "inversion.lbfgs_iters": tally.get("inversion.lbfgs_iters", 0.0),
        "inversion.forward_state_s": secs("inversion._ForwardState.__init__"),
        "inversion.misfit_gradient_s": secs("inversion.misfit_gradient"),
        "inversion.adjoint_solve_s": secs("inversion._ForwardState.adjoint_solve"),
        "inversion.adjoint_solves":
            calls("inversion._ForwardState.adjoint_solve"),
        "inversion.measure_rows_s": secs("inversion._ForwardState._measure_rows"),
        "inversion.measurement_adjoint_s":
            secs("inversion._ForwardState.measurement_adjoint"),
        "inversion.self_s": self_secs("inversion"),
        "spherical.far_coeffs_s": secs("spherical.far_coeffs"),
        "spherical.near_from_far_s": secs("spherical.near_from_far"),
        "spherical.near_from_far_calls": calls("spherical.near_from_far"),
        "spherical.self_s": self_secs("spherical"),
        "cgo.solve_s": secs("cgo.cgo_solve"),
        "cgo.solves": calls("cgo.cgo_solve"),
        "cgo.neumann_iters": tally.get("cgo.neumann_iters", 0.0),
        "cgo.faddeev_s": secs("cgo.FaddeevOperator.__call__"),
        "cgo.faddeev_calls": calls("cgo.FaddeevOperator.__call__"),
        "cgo.medium_fields_s": secs("cgo.MediumFields.__init__"),
        "cgo.medium_fields_builds": calls("cgo.MediumFields.__init__"),
        "cgo.rotate_index_s": secs("cgo.rotate_index"),
        "cgo.self_s": self_secs("cgo"),
        "vsc.pair_estimate_self_s":
            summary.get("vsc.cgo_pair_estimate", {}).get("self_s", 0.0),
        "fourier.inverse_fourier_s": secs("fourier.inverse_fourier"),
        "fourier.inverse_fourier_calls": calls("fourier.inverse_fourier"),
        "fourier.self_s": self_secs("fourier"),
        "scipy_fft.calls": calls("scipy_fft.fftn") + calls("scipy_fft.ifftn"),
        "scipy_fft.s": secs("scipy_fft.fftn", "scipy_fft.ifftn"),
        "scipy_fft.gflop_computed": 1e-9 * tally.get("scipy_fft.flop", 0.0),
        "io.write_s": secs(*io_writes),
        "io.bytes_written": tally.get("io.bytes", 0.0),
        "cli.self_s": self_secs("cli"),
    }

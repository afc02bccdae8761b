"""Span tracing at fdstab's module boundaries, installed from outside.

:meth:`Tracer.install` wraps every public callable of each layer module (module
functions, and the public methods, properties, ``__init__`` and operators
of the classes a module defines) and the three scipy entry points as the
fdstab namespaces bind them.  A wrapper is bound in every loaded fdstab
namespace that held the original, so calls between modules are seen as
well as calls from the benchmark.  Each call records a span
``(name, start, end, parent)`` in memory; nothing is written until
:meth:`Tracer.write`.  A boundary name that no longer exists is recorded
in ``Tracer.absent`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ["params", "profiles", "fields", "functionals", "flow", "moments",
          "spectral", "shooting", "parabolic", "counterexample", "logscale",
          "ledger", "constants"]

# layer name -> (fdstab module, attribute path) of each binding it wraps
BOUNDARIES = {
    "scipy.solve_banded": [("flow", "solve_banded"), ("parabolic", "solve_banded")],
    "scipy.solve_ivp": [("shooting", "solve_ivp")],
    "scipy.eigh": [("spectral", "scipy.linalg.eigh")],
}

# operators and constructors count as public API of a class
_CLASS_DUNDERS = {"__init__", "__mul__", "__truediv__", "__add__", "__sub__",
                  "__lt__", "__le__", "__gt__", "__ge__", "__getitem__",
                  "__contains__"}


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self._undo: list = []      # (owner, attribute, original)
        self.absent: list[str] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        # the raw class attribute keeps staticmethod and property wrappers
        raw = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, value)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "fdstab" or n.startswith("fdstab.")) and m is not None]
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"fdstab.{layer}")
            except ImportError:
                self.absent.append(f"fdstab.{layer}")
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    self._rebind(obj, self.wrap(f"{layer}.{name}", obj), namespaces)
        for layer, bindings in BOUNDARIES.items():
            for modname, path in bindings:
                owner = sys.modules.get(f"fdstab.{modname}")
                *head, attr = path.split(".")
                for part in head:
                    owner = getattr(owner, part, None)
                if owner is None or not callable(getattr(owner, attr, None)):
                    self.absent.append(f"fdstab.{modname}.{path}")
                    continue
                self._set(owner, attr, self.wrap(layer, getattr(owner, attr)))

    def _rebind(self, original, wrapper, namespaces) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._set(ns, attr, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _CLASS_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, property) and value.fget is not None:
                self._set(cls, attr, property(self.wrap(name, value.fget),
                                              value.fset, value.fdel, value.__doc__))
            elif isinstance(value, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(name, value.__func__)))
            elif isinstance(value, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                self._set(cls, attr, self.wrap(name, value))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time per layer; self time is a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: {"calls": 0, "self_s": 0.0}
                  for layer in LAYERS + list(BOUNDARIES)}
        for (name, start, end, _), inner in zip(self.spans, child):
            layer = name if name in BOUNDARIES else name.split(".", 1)[0]
            totals[layer]["calls"] += 1
            totals[layer]["self_s"] += end - start - inner
        return totals

    def write(self, path) -> None:
        """Write the spans as {"names": [...], "spans": [[name id, start,
        end, parent], ...]}, times in seconds of the perf_counter clock."""
        ids: dict[str, int] = {}
        rows = [[ids.setdefault(name, len(ids)), start, end, parent]
                for name, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": list(ids), "absent": self.absent, "spans": rows}, fh)

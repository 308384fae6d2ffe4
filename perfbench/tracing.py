"""Spans around calls into ohmgraph, recorded from outside the library.

:class:`Tracer` replaces every public function and public method of the
ohmgraph modules with a timing wrapper, including the names other ohmgraph
modules rebound with ``from .x import y``, and wraps the ``scipy.linalg``
Cholesky calls as the ``kernel`` layer.  A span records its name, start, end
and parent; spans opened under one top-level call (one CLI invocation) share
an invocation id.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import scipy.linalg

MODULES = ("graph", "solver", "electrical", "schur", "localization", "routing", "cli")
LAYERS = MODULES + ("kernel",)


def _ncols(b) -> int:
    return 1 if b.ndim == 1 else b.shape[1]


# Per-span attributes, computed from the call's arguments and result.
_ANNOTATE = {
    # flops are computed from array sizes: n^3/3 per factor, 2 n^2 k per k-column solve
    "kernel.cho_factor": lambda a, kw, out: {"flops": a[0].shape[0] ** 3 / 3},
    "kernel.cho_solve": lambda a, kw, out: {"flops": 2 * a[0][0].shape[0] ** 2 * _ncols(a[1])},
    "solver.solve_columns": lambda a, kw, out: {"cols": out.shape[1]},
    "solver.spectral_norm_nonneg": lambda a, kw, out: {"iterations": out.iterations},
    "localization.run_elimination": lambda a, kw, out: {"steps": len(out.steps)},
    "routing.route_demands": lambda a, kw, out: {"demands": len(a[1])},
}

# Spans of TransferImpedance record its edge count, so that the columns solved
# beneath them can be counted as passes over Pi.
_OWNER_ANNOTATE = {
    "TransferImpedance": lambda a, kw, out: {"pi_m": a[0].n_edges},
}


class Span:
    __slots__ = ("invocation", "id", "parent", "name", "start", "end", "nested", "attrs")

    def __init__(self, invocation, id_, parent, name, start, nested):
        self.invocation = invocation
        self.id = id_
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.nested = nested  # an enclosing span has the same name
        self.attrs = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._open_names: dict[str, int] = defaultdict(int)
        self._invocations = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if not stack:
                self._invocations += 1
            span = Span(self._invocations, len(self.spans), stack[-1].id if stack else None,
                        name, time.perf_counter(), self._open_names[name] > 0)
            self.spans.append(span)
            stack.append(span)
            self._open_names[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self._open_names[name] -= 1
            if annotate is not None:
                span.attrs = annotate(args, kwargs, out)
            return out

        return wrapper

    # -- installing the wrappers ----------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, short: str, attr: str, fn, modules) -> None:
        name = f"{short}.{attr}"
        wrapper = self._wrap(name, fn, _ANNOTATE.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapper)

    def _wrap_class(self, short: str, cls) -> None:
        owner = _OWNER_ANNOTATE.get(cls.__name__)
        for attr, value in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(value) and not dataclasses.is_dataclass(cls):
                name = f"{short}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            elif isinstance(value, classmethod):
                name = f"{short}.{attr}"
                self._set(cls, attr, classmethod(self._wrap(name, value.__func__, _ANNOTATE.get(name))))
                continue
            elif inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                name = f"{short}.{attr}"
            else:
                continue
            self._set(cls, attr, self._wrap(name, value, _ANNOTATE.get(name) or owner))

    def install(self) -> None:
        """Wrap the public names of every ohmgraph module and the kernel calls."""
        modules = [sys.modules["ohmgraph"]] + [sys.modules[f"ohmgraph.{m}"] for m in MODULES]
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(value):
                    if not issubclass(value, BaseException):
                        self._wrap_class(short, value)
                elif inspect.isfunction(value):
                    self._wrap_function(short, attr, value, modules)
        for attr in ("cho_factor", "cho_solve"):
            name = f"kernel.{attr}"
            self._set(scipy.linalg, attr, self._wrap(name, vars(scipy.linalg)[attr], _ANNOTATE[name]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the spans -----------------------------------------------

    def summarize(self, first: int = 0) -> dict[str, float]:
        """Per-layer metrics over the spans recorded since index ``first``.

        ``<name>.calls`` counts spans, ``<name>.s`` sums their duration
        (counting a span inside a same-named one once), and ``<layer>.self_s``
        sums, over the layer's spans, the duration not covered by child spans.
        """
        spans = self.spans[first:]
        by_id = {s.id: s for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        columns_in_pi = 0.0
        for s in spans:
            dur = s.end - s.start
            out[f"{s.name}.calls"] += 1
            if not s.nested:
                out[f"{s.name}.s"] += dur
            out[f"{s.name.split('.', 1)[0]}.self_s"] += dur - child_time[s.id]
            attrs = s.attrs or {}
            out["kernel.flops_computed"] += attrs.get("flops", 0.0)
            out["solver.power_iterations"] += attrs.get("iterations", 0)
            out["localization.steps"] += attrs.get("steps", 0)
            out["routing.demands"] += attrs.get("demands", 0)
            if "cols" in attrs:
                out["solver.columns_solved"] += attrs["cols"]
                parent = by_id.get(s.parent)
                while parent is not None and not (parent.attrs and "pi_m" in parent.attrs):
                    parent = by_id.get(parent.parent)
                if parent is not None:
                    columns_in_pi += attrs["cols"] / parent.attrs["pi_m"]
        out["electrical.passes_over_pi"] = columns_in_pi
        return dict(out)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {"invocation": s.invocation, "id": s.id, "parent": s.parent, "name": s.name,
                          "start": s.start, "end": s.end, **(s.attrs or {})}
                fh.write(json.dumps(record) + "\n")

"""Span tracing of matpi's layers, installed from outside the package.

`Tracer.install` wraps every public function of every `matpi` module and
every public method of the classes they define, in every module namespace
that holds them: names such as `mul_flat` or `eval_standard_dp` are
imported by value into other modules and must be wrapped there too.  The
per-scalar methods of the `rings` classes are left alone; a span per
scalar addition would outweigh the work it measures.

Each call records a span (name, start, end, parent span, operation id) in
flat in-memory arrays; `write` saves them once, at the end of the run.
Self time is a span's duration minus the durations of its child spans.
A required target that a later change renames or removes is reported as
absent, and tracing goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from math import comb

import numpy as np

SKIPPED_CLASS_MODULES = ("matpi.rings",)
SPAN_STATS = ("calls", "total_s", "self_s")


def _dp_batch_counts(args, kwargs) -> dict:
    """Computed from the argument shape (t, B, n, n): batch items, matmuls
    t * 2^(t-1) * B, and the two DP layers 2 * C(t, t/2) * B * n^2 int64s."""
    stack = kwargs["stack"] if "stack" in kwargs else args[0]
    t, b, n, _ = stack.shape
    return {
        "items": b,
        "matmuls": t * 2 ** (t - 1) * b,
        "peak_layer_mb": 2 * comb(t, t // 2) * b * n * n * 8 / 2**20,
    }


# computed counters per span name; peak_* counters keep the maximum
HOOKS = {"fastpath.dp_batch": _dp_batch_counts}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_of: array = array("q")
        self.parent: array = array("q")
        self.op: array = array("q")
        self.outer: array = array("b")
        self.start: array = array("d")
        self.end: array = array("d")
        self.op_id = -1
        self.counters: dict = {}
        self.hook_errors: dict = {}
        self.wrapped: set = set()
        self._stack: list = []
        self._active: list = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public callables of every module of `package`."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        replace = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not inspect.isgeneratorfunction(obj):
                        replace[obj] = self._wrap(obj, f"{short}.{attr}")
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and mod.__name__ not in SKIPPED_CLASS_MODULES):
                    self._wrap_methods(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    setattr(cls, attr, type(raw)(self._wrap(fn, name)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self._wrap(raw, name))

    def _wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self._active.append(0)
        self.wrapped.add(name)
        hook = HOOKS.get(name)
        names, parent, op, outer = self.name_of, self.parent, self.op, self.outer
        start, end = self.start, self.end
        stack, active = self._stack, self._active
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                tracer._count(name, hook, args, kwargs)
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            outer.append(active[nid] == 0)
            active[nid] += 1
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] -= 1

        return traced

    def _count(self, name, hook, args, kwargs) -> None:
        try:
            values = hook(args, kwargs)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
            # a changed signature makes the computed counters absent, not fatal
            self.hook_errors[name] = f"{type(e).__name__}: {e}"
            return
        acc = self.counters.setdefault(name, {})
        for key, v in values.items():
            acc[key] = max(acc.get(key, 0), v) if key.startswith("peak_") else acc.get(key, 0) + v

    # -- results -------------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.name_of, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.outer, dtype=np.int8))

    def summary(self) -> dict:
        """Per span name: calls, total_s (outermost spans only, so recursion
        is not counted twice), self_s, and any computed counters."""
        k = len(self.names)
        if not len(self.name_of):
            return {}
        names, parent, start, end, outer = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur * outer, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k)
        out = {}
        for nid, name in enumerate(self.names):
            if calls[nid]:
                out[name] = {"calls": int(calls[nid]), "total_s": float(total[nid]),
                             "self_s": float(self_s[nid])}
                if name in self.counters and name not in self.hook_errors:
                    out[name].update(self.counters[name])
        return out

    def write(self, path) -> None:
        """Save every span once: names, and parallel arrays indexed by span."""
        names, parent, start, end, _ = self._arrays()
        np.savez(path, names=np.array(self.names, dtype=str), name=names, parent=parent,
                 op=np.frombuffer(self.op, dtype=np.int64), start=start, end=end)

    def metric(self, summary: dict, target: str, stat: str):
        """One per-layer value from `summary`, or None when its target is
        absent.  A target that is wrapped but never called reads 0."""
        if target not in self.wrapped:
            return None
        if stat not in SPAN_STATS and target in self.hook_errors:
            return None
        return summary.get(target, {}).get(stat, 0)

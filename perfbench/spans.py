"""Span tracer that wraps the package's public functions from outside.

Every public module-level function of the traced modules, plus
``BarrierDistribution.sample`` at class level, is replaced by a wrapper that
records one span (name, start, end, parent) per call.  The replacement is
made on the defining module and on every module of the package that holds a
reference to the same function object, so names bound by ``from .x import f``
are traced too.  Spans live in flat arrays until the run ends; self times are
computed afterwards as a span's duration minus the durations of its children.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("params", "thresholds", "classifier", "output", "oracle",
                  "engine", "cli")


class Tracer:
    def __init__(self, package: str = "barriergame"):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # span arrays; a span's index is allocated on entry, so a parent's
        # index is always smaller than its children's
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}
        self.observers: dict[str, object] = {}
        # cleared while the benchmark generates inputs or checks outputs
        self.active = [True]

    # -- installation ---------------------------------------------------
    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        observe = self.observers.get(name)
        active = self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _holders(self, extra_modules) -> list:
        return [m for n, m in sys.modules.items()
                if n == self.package or n.startswith(self.package + ".")
                ] + list(extra_modules)

    def install(self, extra_modules=()) -> None:
        """Wrap every public function of the traced modules and rebind each
        reference to it held by the package's modules and ``extra_modules``."""
        wrapped: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{self.package}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                self._originals[id(obj)] = obj
        for mod in self._holders(extra_modules):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and self._originals[id(obj)] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        dist_cls = sys.modules[f"{self.package}.params"].BarrierDistribution
        sample = dist_cls.__dict__["sample"]
        self._patches.append((dist_cls, "sample", sample))
        self._originals[id(sample)] = sample
        dist_cls.sample = self._wrap("params.BarrierDistribution.sample", sample)

    def stale_references(self, extra_modules=()) -> list[str]:
        """Names in the package (or ``extra_modules``) still bound to an
        unwrapped original: each one would be a layer the trace misses."""
        stale = []
        for mod in self._holders(extra_modules):
            for attr, obj in vars(mod).items():
                if self._originals.get(id(obj)) is obj:
                    stale.append(f"{getattr(mod, '__name__', mod)}.{attr}")
        return stale

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls and total self seconds."""
        a = self.arrays()
        n, k = len(a["name"]), len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        self_t = dur - child
        calls = np.bincount(a["name"], minlength=k)
        self_sum = np.bincount(a["name"], weights=self_t, minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(self_sum[i])}
                for i, name in enumerate(self.names)}

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        if name not in self.name_ids or ancestor not in self.name_ids:
            return 0
        nid, aid = self.name_ids[name], self.name_ids[ancestor]
        names, parents = self.span_name, self.span_parent
        count = 0
        for i in np.flatnonzero(np.frombuffer(names, dtype=np.uint16) == nid):
            j = parents[int(i)]
            while j >= 0:
                if names[j] == aid:
                    count += 1
                    break
                j = parents[j]
        return count

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

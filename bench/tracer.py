"""Per-layer tracing of biblock from outside the program.

`Tracer.install` replaces every public function of the biblock modules
with a wrapper that records a span (name, parent, start, end), and
rebinds every module-level name that refers to the original, so that
calls through `from .spectral import perron` in `rewrites` or
`enumeration` are seen as well.  `uninstall` restores the originals.
Spans stay in memory; self time is a span's duration minus the
durations of its direct children.

Calls made inside `verify-theorem`'s worker processes are not seen: the
workers' spans live and die in the workers, so in the `verify` workload
the Perron solves show up only as wait inside `extremal_verify`.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("graphs", "blocks", "independence", "spectral", "rewrites", "enumeration", "cli")


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.emitted: dict[int, int] = {}  # enumerate_biblock span -> graphs returned
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        clock = self.clock
        counts_emitted = name == "enumeration.enumerate_biblock"

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counts_emitted:
                self.emitted[i] = len(result)
            return result

        return traced

    def install(self) -> None:
        mods = [importlib.import_module(f"biblock.{m}") for m in MODULES]
        mods.append(importlib.import_module("biblock"))
        wrappers = {}
        for mod in mods[:-1]:
            short = mod.__name__.split(".")[-1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved.clear()

    def summary(self, since: int = 0) -> dict[str, float]:
        """Calls and self seconds per function over spans `since` onwards, plus the derived ratios."""
        n = len(self.names)
        child = [0.0] * n
        in_normalize = [False] * n
        in_enumerate = [False] * n
        for i in range(since, n):
            p = self.parents[i]
            if p >= since:
                child[p] += self.ends[i] - self.starts[i]
                in_normalize[i] = in_normalize[p] or self.names[p] == "rewrites.normalize"
                in_enumerate[i] = in_enumerate[p] or self.names[p] == "enumeration.enumerate_biblock"
        out: dict[str, float] = {}
        perron_in_normalize = canonical_in_enumerate = 0
        for i in range(since, n):
            name = self.names[i]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = (out.get(f"{name}.self_s", 0.0)
                                     + self.ends[i] - self.starts[i] - child[i])
            if name == "spectral.perron" and in_normalize[i]:
                perron_in_normalize += 1
            if name == "graphs.canonical_form" and in_enumerate[i]:
                canonical_in_enumerate += 1
        steps = out.get("rewrites.apply_step.calls", 0)
        out["rewrites.perron_per_step"] = perron_in_normalize / steps if steps else 0.0
        emitted = sum(c for i, c in self.emitted.items() if i >= since)
        out["enumeration.canonical_per_class"] = (
            canonical_in_enumerate / emitted if emitted else 0.0)
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span: id, parent id, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")

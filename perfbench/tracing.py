"""Per-layer tracing installed from outside the program.

Tracer.install wraps every public function defined in the six walkspec
modules and rebinds the wrapper wherever a walkspec module namespace holds
the original, so calls through `from .linalg import charpoly` copies are
seen too. It also counts IntMatrix constructions. Each wrapper records a
span; a function's self time is its span minus the spans of the wrapped
functions it called. Statistics stay in memory until stats() is read.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("graphs", "linalg", "numtheory", "criterion", "oracle", "cli")


class Tracer:
    def __init__(self) -> None:
        self._stats: dict[str, dict] = {}
        self._open: list[float] = []  # child time accumulated by each open span
        self._undo: list[tuple[object, str, object]] = []
        self.matrices = 0

    def _span(self, stats: dict, step, first: bool):
        """Run step() as one span of stats; count a call when first."""
        open_spans = self._open
        open_spans.append(0.0)
        start = time.perf_counter()
        try:
            return step()
        except BaseException as exc:
            if not isinstance(exc, StopIteration):
                kind = type(exc).__name__
                stats["raised"][kind] = stats["raised"].get(kind, 0) + 1
            raise
        finally:
            span = time.perf_counter() - start
            stats["calls"] += first
            stats["total_s"] += span
            stats["self_s"] += span - open_spans.pop()
            if open_spans:
                open_spans[-1] += span

    def _wrap(self, name: str, fn):
        stats = self._stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": {}}
        span = self._span
        if inspect.isgeneratorfunction(fn):
            # time each resumption, so the consumer is not charged for the
            # generator's own work
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = span(stats, lambda: fn(*args, **kwargs), True)
                while True:
                    try:
                        item = span(stats, it.__next__, False)
                    except StopIteration:
                        return
                    yield item
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(stats, lambda: fn(*args, **kwargs), True)
        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"walkspec.{short}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "walkspec" and not modname.startswith("walkspec."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, value))

        int_matrix = importlib.import_module("walkspec.linalg").IntMatrix
        init = int_matrix.__init__

        def counting_init(matrix, data):
            self.matrices += 1
            init(matrix, data)

        int_matrix.__init__ = counting_init
        self._undo.append((int_matrix, "__init__", init))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def stats(self) -> dict:
        out = {name: dict(s) for name, s in self._stats.items()}
        out["linalg.IntMatrix"] = {"new": self.matrices}
        return out

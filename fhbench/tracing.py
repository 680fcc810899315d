"""Spans around calls into the package's public functions, from outside it.

``Tracer.install`` wraps each listed function and rebinds every name in the
package's modules that refers to that function object, so calls made
between modules (``optimizer.achievable_rate``, ``montecarlo.link_budget``)
are caught as well as the ones the benchmark makes.  A listed function that
does not exist is reported as absent.

Per function the tracer keeps the call count, total time and self time (a
span's duration minus its direct children's).  With ``memory`` on it also
keeps the largest tracemalloc peak of any one call, above the memory in use
when the call began; that mode is slow, so it runs one separate operation
and its times and counts are dropped.  Spans themselves (id, parent, name,
start, end) are kept in memory while ``record`` is on and written out by
the caller.

One span stack serves the process, so the traced code must run in one
thread; the workloads start none.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

_MB = 1024.0 * 1024.0


class _Frame:
    __slots__ = ("span_id", "name", "start", "child_s", "mem_base", "mem_peak")

    def __init__(self, span_id, name, start, mem_base):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.mem_base = mem_base
        self.mem_peak = mem_base


class Tracer:
    def __init__(self, package: str, targets: list[str]):
        self.package = package
        self.targets = targets  # "module.function", relative to the package
        self.absent: list[str] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.peak_bytes: dict[str, int] = {}
        self.top_level_s = 0.0
        self.record = False
        self.memory = False
        self.spans: list[tuple] = []
        self._stack: list[_Frame] = []
        self._next_id = 0

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for target in self.targets:
            mod_name, _, fn_name = target.rpartition(".")
            module = sys.modules.get(f"{self.package}.{mod_name}")
            fn = getattr(module, fn_name, None) if module is not None else None
            if not callable(fn):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
            self.calls[target] = 0
            self.total_s[target] = 0.0
            self.self_s[target] = 0.0
            self.peak_bytes[target] = 0

    def reset_counts(self) -> None:
        for target in self.calls:
            self.calls[target] = 0
            self.total_s[target] = 0.0
            self.self_s[target] = 0.0
        self.top_level_s = 0.0

    def _wrap(self, name: str, fn):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def _enter(self, name: str) -> _Frame:
        mem_base = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.mem_peak = max(parent.mem_peak, peak)
            tracemalloc.reset_peak()
            mem_base = current
        self._next_id += 1
        frame = _Frame(self._next_id, name, time.perf_counter(), mem_base)
        self._stack.append(frame)
        return frame

    def _leave(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        name = frame.name
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame.child_s
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
        else:
            parent = None
            self.top_level_s += duration
        if self.memory:
            peak = max(frame.mem_peak, tracemalloc.get_traced_memory()[1])
            self.peak_bytes[name] = max(self.peak_bytes[name], peak - frame.mem_base)
            if parent is not None:
                parent.mem_peak = max(parent.mem_peak, peak)
        if self.record:
            self.spans.append(
                (frame.span_id, parent.span_id if parent else 0, name, frame.start, end)
            )

    def measure_memory(self, run) -> None:
        """Call ``run()`` with tracemalloc on, keeping only per-call peaks."""
        self.memory = True
        tracemalloc.start()
        try:
            run()
        finally:
            tracemalloc.stop()
            self.memory = False
        self.reset_counts()

    def peak_alloc_mb(self, name: str) -> float:
        return self.peak_bytes[name] / _MB

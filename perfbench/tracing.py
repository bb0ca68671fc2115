"""In-memory span recorder that wraps the harness's public functions.

``Tracer.install`` replaces each traced function at every module
attribute of the ``acsa_harness`` package that refers to it (so both
``runner.prepare_jobs`` and names bound by ``from .prompts import ...``
are caught), plus a few methods and one property. ``uninstall`` puts the
originals back. Nothing inside the harness changes.

A span is ``(id, name, start, end, cpu, parent, thread)``. The parent
is the innermost open span on the same thread; a span opened on a pool
thread with nothing open there takes the open root span (``runner.run``)
as its parent, which is the call that caused it.

``start``/``end`` are wall clock. ``cpu`` is CPU time: of the calling
thread (``time.thread_time``) for a nested span, so that time spent
waiting for the GIL while another pool thread runs does not count; of
the whole process (``time.process_time``) for a root span, so that it
covers the pool threads it started. Durations, percentiles and self
times all use ``cpu``.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("datasets", "umr", "prompts", "llm", "postprocess", "runner", "metrics", "stats", "cli")

# Public names are found by scanning each layer module; these are added.
METHODS = {"llm": (("ChatClient", "chat"), ("ReplayBackend", "complete"))}
PROPERTIES = {"llm": (("ChatRequest", "cache_key"),)}
PRIVATE = {"runner": ("_atomic_write",)}
# Called once per inventory entry for every pair: counted, never timed.
COUNT_ONLY = {"postprocess.similarity"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, list] = defaultdict(list)
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._root = None
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.calls = defaultdict(list)

    # -- wrapping ---------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = tracer._next_id()
            parent = stack[-1] if stack else tracer._root
            is_root = not stack and parent is None
            if is_root:
                tracer._root = sid
            cpu_clock = time.process_time if is_root else time.thread_time
            stack.append(sid)
            start, cpu_start = clock(), cpu_clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu, end = cpu_clock() - cpu_start, clock()
                stack.pop()
                if is_root:
                    tracer._root = None
                tracer.spans.append((sid, name, start, end, cpu, parent, threading.get_ident()))

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append(None)  # list.append is atomic under the GIL
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: sys.modules[f"acsa_harness.{layer}"] for layer in LAYERS}
        targets = []  # (name, original)
        for layer, module in modules.items():
            names = [n for n in vars(module) if not n.startswith("_")]
            names += PRIVATE.get(layer, ())
            for attr in names:
                obj = getattr(module, attr)
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    targets.append((f"{layer}.{attr}", obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._span(f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))
            for cls_name, prop in PROPERTIES.get(layer, ()):
                cls = getattr(module, cls_name)
                fget = cls.__dict__[prop].fget
                self._patch(cls, prop, property(self._span(f"{layer}.{cls_name}.{prop}", fget)))
        for name, original in targets:
            wrap = self._counter if name in COUNT_ONLY else self._span
            wrapped = wrap(name, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Derived figures


class SpanStats:
    """Per-name call counts, CPU times and self times over many ops.

    A span's self time is its CPU time minus that of its direct
    children. Children of a nested span run on its thread; children of a
    root span may run on pool threads, whose CPU the root's process CPU
    time includes. So the subtraction holds either way.
    """

    KEEP_DURATIONS = ("llm.ChatClient.chat", "postprocess.extract_pair_list")

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.wall_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)

    def add(self, tracer: Tracer) -> None:
        children_cpu = defaultdict(float)
        for _, _, _, _, cpu, parent, _ in tracer.spans:
            if parent is not None:
                children_cpu[parent] += cpu
        for sid, name, start, end, cpu, _, _ in tracer.spans:
            self.calls[name] += 1
            self.total_s[name] += cpu
            self.self_s[name] += cpu - children_cpu.get(sid, 0.0)
            self.wall_s[name] += end - start
            if name in self.KEEP_DURATIONS:
                self.durations[name].append(cpu)
        for name, calls in tracer.calls.items():
            self.calls[name] += len(calls)


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values above it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1], len(ordered) - rank

"""In-memory span recorder that wraps entlab's public functions from outside.

Nothing inside the package changes: :func:`Tracer.install` replaces each
listed function in the module that defines it and in every ``entlab``
module that imported it by name, and puts the originals back on exit.
Spans are plain tuples kept in a list until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional

# Spans are (span_id, name, start, end, parent_id, op_id, root_kind).
ROOT_OP = "op"
ROOT_CHECK = "check"


class Tracer:
    """Records one span per call of a wrapped function, nested by call stack."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.observed: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._next_id = 0
        self._op_id: Optional[int] = None
        self._root_kind: Optional[str] = None

    # ------------------------------------------------------------------ spans
    def _record(self, name: str, fn: Callable, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self._op_id, self._root_kind))

    @contextlib.contextmanager
    def root(self, kind: str, op_id: int) -> Iterator[None]:
        """Root span for one op (``kind='op'``) or its oracle check."""
        self._op_id, self._root_kind = op_id, kind
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, kind, start, end, -1, op_id, kind))
            self._op_id, self._root_kind = None, None

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._record(name, fn, args, kwargs)
            if observe is not None and self._root_kind == ROOT_OP:
                self.observed[name].append(observe(args, kwargs, result))
            return result

        return traced

    # ---------------------------------------------------------------- install
    @contextlib.contextmanager
    def install(self, targets: dict[str, Optional[Callable]]) -> Iterator[None]:
        """Wrap ``{"module.function": observe_or_None}`` for the duration."""
        patched = []
        try:
            for qualname, observe in targets.items():
                module_name, func_name = qualname.split(".")
                original = getattr(sys.modules[f"entlab.{module_name}"], func_name)
                wrapper = self.wrap(qualname, original, observe)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != "entlab" and not mod_name.startswith("entlab."):
                        continue
                    if getattr(module, func_name, None) is original:
                        setattr(module, func_name, wrapper)
                        patched.append((module, func_name, original))
            yield
        finally:
            for module, func_name, original in reversed(patched):
                setattr(module, func_name, original)

    # -------------------------------------------------------------- analysis
    def self_times(self) -> list[tuple[str, float, Optional[int], Optional[str]]]:
        """(name, self seconds, op id, root kind) per span.

        Self time is the span's duration minus the time its child spans
        cover; calls are sequential in one thread, so children never overlap.
        """
        covered: dict[int, float] = defaultdict(float)
        for sid, _name, start, end, parent, _op, _kind in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (name, (end - start) - covered[sid], op, kind)
            for sid, name, start, end, parent, op, kind in self.spans
        ]


def wrapper_cost_seconds(samples: int = 20000) -> float:
    """Measured cost one wrapped call adds over a direct call, in seconds."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer.wrap("bench.noop", noop)
    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        best_plain = min(best_plain, time.perf_counter() - start)
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(samples):
            wrapped()
        best_wrapped = min(best_wrapped, time.perf_counter() - start)
    return max(best_wrapped - best_plain, 0.0) / samples

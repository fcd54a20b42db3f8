"""Outside-in span tracing of the program's layers.

The benchmark does not change the program to trace it.  Instead each
layer's public entry point is replaced, for the duration of a traced
op, by a wrapper bound where its caller looks the name up (for example
``repro.core.pb_spgemm.expand_arena``, the name ``pb_spgemm_detailed``
calls).  A wrapper records a span -- name, start, end, parent span and
op id -- plus the bytes of the arrays the call reads and writes.  Spans
stay in memory and are written once, at the end, as Chrome trace-event
JSON (the format Perfetto and chrome://tracing open).

Calls made inside shard, pool-worker and server processes are not
traced; those layers are measured through their result fields and the
server's ``stats`` op instead.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int = 0  # 0: no parent
    op: int = 0  # op (or request) id the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def array_bytes(obj, depth: int = 0) -> int:
    """Bytes of every ndarray in ``obj``: an array, a sparse matrix
    (its indptr / indices / data), or a tuple / list / dict of those."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth > 2:
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(x, depth + 1) for x in obj)
    if isinstance(obj, dict):
        return sum(array_bytes(x, depth + 1) for x in obj.values())
    if hasattr(obj, "indptr") and hasattr(obj, "data"):
        return sum(array_bytes(getattr(obj, k, None), depth + 1)
                   for k in ("indptr", "indices", "data"))
    return 0


class Tracer:
    """In-memory span recorder with wrappers it can bind and unbind."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        self._bindings: list[tuple] = []  # (owner, attr, original, wrapper)
        # A context variable, so each asyncio request task keeps its own.
        self._op = contextvars.ContextVar("perfbench_op", default=0)
        self.t0 = time.perf_counter()

    @property
    def op(self) -> int:
        return self._op.get()

    @op.setter
    def op(self, value: int) -> None:
        self._op.set(value)

    # -- recording ------------------------------------------------------------
    def begin(self, name: str, **attrs) -> Span:
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=self._stack[-1].id if self._stack else 0,
            op=self.op,
            attrs=attrs,
        )
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - misuse guard
            raise RuntimeError(f"span {span.name} closed out of order")
        self.spans.append(span)

    def record(self, name: str, start: float, end: float, op: int, **attrs) -> None:
        """A span whose boundaries were measured elsewhere (an asyncio
        request, which cannot nest on the synchronous stack)."""
        self.spans.append(Span(next(self._ids), name, start, end, 0, op, attrs))

    # -- binding --------------------------------------------------------------
    def wrap(self, target: str, name: str, *, count_bytes: bool = False,
             on_result=None) -> None:
        """Replace ``module.attr`` (or ``module.Class.attr``) by a
        tracing wrapper until :meth:`unbind`.  ``on_result(span, args,
        kwargs, result)`` may add attributes from the call's result."""
        module_name, _, attr = target.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            mod, _, cls = module_name.rpartition(".")
            owner = getattr(importlib.import_module(mod), cls)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = True
                tracer.end(span)
                raise
            tracer.end(span)
            if count_bytes:
                span.attrs["bytes"] = array_bytes(args) + array_bytes(kwargs) + array_bytes(result)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        self._bindings.append((owner, attr, original, wrapper))

    def bind(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def unbind(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------
    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the part covered by its children.
        Children of one span never overlap (they nest on one stack)."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.parent:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
        return {s.id: s.seconds - covered.get(s.id, 0.0) for s in self.spans}

    def write_chrome(self, path: str, *, track_per_op: bool = False) -> None:
        """Chrome trace-event JSON: one complete ("X") event per span,
        microsecond timestamps relative to the tracer's creation.  With
        ``track_per_op`` each op gets its own track (thread id), for
        ops that overlap in time."""
        pid = os.getpid()
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            args = {"id": s.id, "parent": s.parent, "op": s.op}
            args.update({k: v for k, v in s.attrs.items()
                         if isinstance(v, (int, float, str, bool)) or v is None})
            events.append({
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start - self.t0) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": pid,
                "tid": s.op if track_per_op else 0,
                "args": args,
            })
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

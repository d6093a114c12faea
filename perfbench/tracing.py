"""Spans around calls into the store's layers, recorded from the benchmark.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces the
public entry points of each layer (module functions, as the calling module
sees them, and class methods) with wrappers that record a span per call:
name, start, end, parent span and operation id.  The wrappers are removed
again by :meth:`Tracer.uninstall`, so an untraced run executes the program's
own functions unchanged.

Parent/child links follow the calling thread.  A shard branch running on an
executor worker thread, or a request running on a server session thread,
starts a separate tree: those threads do not inherit the caller's stack.

A layer's *self time* is its spans' duration minus the part covered by
their child spans.  Spans are kept in memory and written as JSON lines by
:meth:`Tracer.write`; past ``MAX_SPANS`` only the aggregates are kept.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

__all__ = ["Tracer", "install"]

#: Spans kept in memory per run; later ones only feed the aggregates.
MAX_SPANS = 200_000


class _Frame:
    __slots__ = ("span_id", "parent_id", "name", "start", "child_s", "op_id")

    def __init__(self, span_id: int, parent_id: int | None, name: str, op_id: int | None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.op_id = op_id
        self.child_s = 0.0
        self.start = time.perf_counter()


class Tracer:
    """Span recorder plus per-name aggregates (calls, busy seconds, self seconds)."""

    def __init__(self) -> None:
        self.spans: list[tuple[Any, ...]] = []
        self.dropped = 0
        # name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, *, new_op: bool = False, span_id: int | None = None) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if span_id is None:
            span_id = next(self._ids)
        if new_op or parent is None:
            op_id = span_id
        else:
            op_id = parent.op_id
        frame = _Frame(span_id, parent.span_id if parent else None, name, op_id)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame, *, calls: int = 1, record: bool = True) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child_s += duration
        self_s = duration - frame.child_s
        with self._lock:
            entry = self.totals[frame.name]
            entry[0] += calls
            entry[1] += duration
            entry[2] += self_s
            if record:
                self._record(frame.span_id, frame.parent_id, frame.name, frame.start, end,
                             frame.op_id)
        return duration

    def _record(self, span_id, parent_id, name, start, end, op_id) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (span_id, parent_id, name, start, end, op_id, threading.get_ident())
            )
        else:
            self.dropped += 1

    def span(self, name: str, *, new_op: bool = False) -> "_SpanContext":
        """Context manager recording one span (``new_op`` starts an operation)."""
        return _SpanContext(self, name, new_op)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner: Any, attribute: str, name: str,
             after: Callable[..., None] | None = None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``after(result, args, kwargs)`` runs outside the span and feeds
        counters (bytes, entries) at the same boundary.
        """
        function = getattr(owner, attribute)
        tracer = self
        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                return tracer._traced_generator(name, function(*args, **kwargs))
        else:

            @functools.wraps(function)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = tracer.enter(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.exit(frame)
                if after is not None:
                    after(result, args, kwargs)
                return result

        self._patches.append((owner, attribute, function))
        setattr(owner, attribute, wrapper)

    def _traced_generator(self, name: str, generator: Iterator[Any]) -> Iterator[Any]:
        """Time every resumption of *generator*; one span record covers them all."""
        first_start = None
        last_end = None
        parent_id = op_id = span_id = None
        calls = 1
        try:
            while True:
                frame = self.enter(name, span_id=span_id)
                if first_start is None:
                    first_start, parent_id, op_id, span_id = (
                        frame.start, frame.parent_id, frame.op_id, frame.span_id)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self.exit(frame, calls=calls, record=False)
                    last_end = time.perf_counter()
                    calls = 0
                yield item
        finally:
            generator.close()
            if first_start is not None:
                with self._lock:
                    self._record(span_id, parent_id, name, first_start, last_end, op_id)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reporting -----------------------------------------------------------

    def layer_self_seconds(self) -> dict[str, float]:
        """Self seconds summed per layer (the span name's prefix before the first dot)."""
        layers: dict[str, float] = defaultdict(float)
        for name, (_calls, _total, self_s) in self.totals.items():
            layers[name.split(".", 1)[0]] += self_s
        return dict(layers)

    def write(self, path: Any) -> None:
        """Write the recorded spans as JSON lines (times relative to the first span)."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent_id, name, start, end, op_id, thread in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent_id, "name": name, "op": op_id,
                    "thread": thread, "start_s": round(start - origin, 9),
                    "end_s": round(end - origin, 9),
                }) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "new_op", "frame")

    def __init__(self, tracer: Tracer, name: str, new_op: bool) -> None:
        self.tracer = tracer
        self.name = name
        self.new_op = new_op

    def __enter__(self) -> _Frame:
        self.frame = self.tracer.enter(self.name, new_op=self.new_op)
        return self.frame

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer.exit(self.frame)


def _module(name: str) -> Any:
    return importlib.import_module(f"repro.{name}")


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every layer the benchmark reports on."""
    collection = _module("documentstore.collection")
    indexes = _module("documentstore.indexes")
    wal = _module("documentstore.wal")
    storage = _module("documentstore.storage")
    executor = _module("sharding.executor")
    router = _module("sharding.router")
    protocol = _module("server.protocol")
    server = _module("server.server")
    client = _module("server.client")
    translate_normalized = _module("core.translate_normalized")
    denormalize = _module("core.denormalize")

    Collection = collection.Collection
    tracer.wrap(Collection, "_execute_find", "collection.find")
    tracer.wrap(Collection, "aggregate", "collection.aggregate")
    tracer.wrap(Collection, "insert_many", "collection.insert_many")
    tracer.wrap(Collection, "_update", "collection.update")
    # The planner and pipeline executor are looked up as module globals of
    # the modules that call them.
    tracer.wrap(collection, "plan_query", "planner.plan_query")
    tracer.wrap(collection, "plan_find", "planner.plan_find")
    tracer.wrap(collection, "run_pipeline", "aggregation.run_pipeline")
    tracer.wrap(router, "run_pipeline", "aggregation.run_pipeline")

    def copied(result: Any, args: Any, kwargs: Any) -> None:
        tracer.count("indexes.bulk_insert.entries_copied", len(result[1]))

    tracer.wrap(indexes.Index, "bulk_insert", "indexes.bulk_insert")
    tracer.wrap(indexes.Index, "_merge_sorted", "indexes.merge_sorted", after=copied)
    tracer.wrap(indexes.Index, "point_lookup", "indexes.point_lookup")

    def encoded(result: Any, args: Any, kwargs: Any) -> None:
        tracer.count("bson.encode.bytes", len(result))

    def decoded(result: Any, args: Any, kwargs: Any) -> None:
        tracer.count("bson.decode.bytes", len(args[0]))

    for module in (protocol, storage):
        tracer.wrap(module, "encode_document", "bson.encode", after=encoded)
        tracer.wrap(module, "decode_document", "bson.decode", after=decoded)

    def appended(result: Any, args: Any, kwargs: Any) -> None:
        tracer.count("wal.bytes", len(args[1]))

    tracer.wrap(wal.WriteAheadLog, "append", "wal.append", after=appended)
    # Every fsync of the log, whether the batch policy or flush() asked for it.
    tracer.wrap(wal.WriteAheadLog, "_fsync_locked", "wal.flush")

    tracer.wrap(executor.ScatterRunner, "launch", "sharding.executor.launch")
    tracer.wrap(executor.ScatterPending, "gather", "sharding.executor.gather")
    for method in ("insert_many", "execute_find", "count_documents", "distinct",
                   "update_many", "update_one", "delete_many", "create_index",
                   "drop_collection", "aggregate"):
        tracer.wrap(router.QueryRouter, method, f"router.{method}")

    for module in (client, server):
        tracer.wrap(module, "encode_frame", "protocol.encode_frame")
    # Client side only: there it is the wait for the reply (wire, queueing and
    # server time).  A server session blocks in it while the client is idle.
    tracer.wrap(client, "recv_frame", "protocol.recv_frame")
    tracer.wrap(server._Session, "_dispatch", "server.dispatch")

    tracer.wrap(translate_normalized, "embed_documents", "core.embed_documents")
    tracer.wrap(denormalize, "embed_documents", "core.embed_documents")
    return tracer

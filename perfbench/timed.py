"""Timing wrappers passed into ``repro.exec`` through the constructors it takes.

``SweepEngine(backend=..., cache=...)`` and ``QueryService(engine)`` accept
any objects with the right methods, so the traced run hands them these
subclasses/wrappers instead of patching anything: each records a span
around the public call it overrides and defers to the real code.
"""

from __future__ import annotations

import time

from repro.exec import SolveCache, SweepEngine

from common import Tracer


class TimedCache(SolveCache):
    """A :class:`SolveCache` whose bulk reads and writes are spans."""

    def __init__(self, directory, tracer: Tracer) -> None:
        super().__init__(directory)
        self.tracer = tracer

    def get_many(self, keys):
        with self.tracer.span("cache.get_many", keys=len(keys)):
            return super().get_many(keys)

    def put_many(self, items):
        with self.tracer.span("cache.put_many"):
            return super().put_many(items)


class TimedBackend:
    """Wraps a backend; times only the work inside ``run_batches``.

    The engine consumes ``run_batches`` as a generator and writes each
    batch to the cache between ``next()`` calls, so the span covers each
    ``next()`` alone, never the consumer's cache writes.  Busy seconds
    are summed from the per-cell seconds the batch results carry.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.jobs = getattr(inner, "jobs", 1)
        self.busy_s = 0.0
        self.batches = 0

    def run_batches(self, batches):
        batches = list(batches)
        self.batches += sum(1 for b in batches if b)
        iterator = iter(self.inner.run_batches(batches))
        while True:
            start = time.perf_counter()
            try:
                batch_result = next(iterator)
            except StopIteration:
                self.tracer.add("backend.run_batches", start, time.perf_counter())
                return
            self.tracer.add("backend.run_batches", start, time.perf_counter(),
                            cells=len(batch_result))
            self.busy_s += sum(seconds for _, _, seconds in batch_result)
            yield batch_result

    def warm(self) -> None:
        warm = getattr(self.inner, "warm", None)
        if callable(warm):
            warm()

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()


class TimedEngine(SweepEngine):
    """A :class:`SweepEngine` whose ``run_tasks`` calls are spans."""

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer

    def run_tasks(self, tasks):
        with self.tracer.span("engine.run_tasks", tasks=len(tasks)):
            return super().run_tasks(tasks)

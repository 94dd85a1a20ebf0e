"""Pluggable execution backends for sweep plans.

A backend has one contract: a ``jobs`` worker count and
:meth:`run_batches`, which turns a sequence of planner-produced batches
(see :mod:`repro.exec.planner`) into one ``[(index, result, seconds),
...]`` list per completed batch, batches in any completion order.  Every
batch, a batch of one included, goes through the solver's one solve loop
(``solve_task_batch`` → ``batch_loss_rates``).  Two implementations ship:

* :class:`SerialBackend` — runs batches inline, in planner order.
* :class:`ProcessPoolBackend` — fans batches out over worker processes,
  one future per batch, and the executor's FIFO queue hands the next
  batch to whichever worker frees up first.  The backend never re-splits
  a batch: the planner sizes and orders a pool's batches for load
  balance.  Tasks are pickled whole (pickle restores the frozen
  dataclasses without re-running ``__post_init__``, so the source arrays
  cross the process boundary bit-exactly); workers reconstruct the source
  from the task itself and never touch the parent's ``lru_cache``-held
  traces.  Results carry their grid index, so completion order is
  irrelevant.  The executor is created lazily on first use and stays
  warm for the lifetime of the backend, so an engine running several
  sweeps (the figure registry, a warm benchmark loop) pays worker
  start-up once, not per sweep; the ``fork`` start method is preferred
  where the platform offers it because forked workers skip re-importing
  the scientific stack.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.core.results import LossRateResult
from repro.exec.task import SolveTask, solve_task_batch

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["SerialBackend", "ProcessPoolBackend", "resolve_backend"]

Batch = Sequence[tuple[int, SolveTask]]
BatchResult = list[tuple[int, LossRateResult, float]]


def _solve_batch(batch: Batch) -> BatchResult:
    """Solve one planner batch; per-cell seconds share the batch wall clock."""
    start = time.perf_counter()
    results = solve_task_batch([task for _, task in batch])
    seconds = (time.perf_counter() - start) / len(batch)
    return [
        (index, result, seconds)
        for (index, _), result in zip(batch, results)
    ]


class SerialBackend:
    """Run every batch inline, in planner order."""

    jobs = 1

    def run_batches(self, batches: Sequence[Batch]) -> Iterator[BatchResult]:
        """Solve batches inline, in planner order, one result list each."""
        for batch in batches:
            if batch:
                yield _solve_batch(batch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialBackend()"


class ProcessPoolBackend:
    """Fan planner batches out over a persistent process pool.

    Parameters
    ----------
    jobs:
        Worker process count; defaults to ``os.cpu_count()``.
    start_method:
        ``multiprocessing`` start method for the workers.  ``None``
        (default) picks ``fork`` where the platform supports it —
        forked workers inherit the already-imported scientific stack
        instead of cold-importing it — and falls back to the platform
        default elsewhere.

    The executor is created on first :meth:`run_batches` and reused
    across runs until :meth:`close` (also triggered by ``with backend:``),
    so warm sweeps skip worker start-up entirely.
    """

    def __init__(self, jobs: int | None = None, start_method: str | None = None) -> None:
        self.jobs = int(jobs) if jobs else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if start_method is None and "fork" in multiprocessing.get_all_start_methods():
            start_method = "fork"
        self.start_method = start_method
        self._pool: ProcessPoolExecutor | None = None

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            context = (
                multiprocessing.get_context(self.start_method)
                if self.start_method is not None
                else None
            )
            self._pool = ProcessPoolExecutor(max_workers=self.jobs, mp_context=context)
        return self._pool

    def warm(self) -> None:
        """Spawn every worker now instead of lazily at the first solve.

        ``fork``-start workers inherit every file descriptor open at fork
        time.  A worker forked while a server holds accepted sockets keeps
        those sockets alive after the parent closes them — the peer never
        sees EOF.  Long-lived hosts (the serving layer) call this before
        opening any listener so that no worker can ever hold a connection.
        Each sleeper below occupies one worker for the full round, so the
        executor's on-demand spawning is forced to start all ``jobs``
        processes before the round resolves.  Idempotent; cheap when warm.
        """
        from concurrent.futures import wait

        if self.jobs == 1:
            return  # a single job never touches the pool
        pool = self._executor()
        wait([pool.submit(time.sleep, 0.1) for _ in range(self.jobs)])

    def run_batches(self, batches: Sequence[Batch]) -> Iterator[BatchResult]:
        """Fan whole batches out over the pool, one batch per future.

        Batches are submitted in planner order and each runs whole on
        one worker; a worker that finishes takes the next queued batch,
        so the planner's unit sizes and order decide the load balance.
        With one worker (or one batch) the pool is skipped entirely,
        pickling included.
        """
        batches = [list(batch) for batch in batches if batch]
        if not batches:
            return
        if self.jobs == 1 or len(batches) == 1:
            yield from SerialBackend().run_batches(batches)
            return
        from concurrent.futures import FIRST_COMPLETED, wait

        pool = self._executor()
        pending = {pool.submit(_solve_batch, batch) for batch in batches}
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                yield future.result()

    def close(self) -> None:
        """Shut the warm pool down (idempotent; a later run re-creates it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessPoolBackend(jobs={self.jobs}, "
            f"start_method={self.start_method!r}, "
            f"warm={self._pool is not None})"
        )


def resolve_backend(jobs: int | None) -> SerialBackend | ProcessPoolBackend:
    """Backend from a ``--jobs`` value: serial for ``None``/0/1, pool otherwise."""
    if jobs is None or jobs <= 1:
        return SerialBackend()
    return ProcessPoolBackend(jobs=jobs)

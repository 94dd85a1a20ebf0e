"""Partition pending solve tasks into kernel-stackable units of work.

The batched spectral kernel (``SOLVER_VERSION = 3``) advances tasks in
lockstep only when they share a solve schedule — same starting bin count,
same FFT policy, same convergence knobs — i.e. when their
:meth:`~repro.exec.task.SolveTask.group_key` hashes agree.  The planner
buckets the cache-miss cells of a plan by that hash, preserving first-seen
bucket order and task order within a bucket, and splits each bucket into
batches.

A serial backend (``jobs == 1``) runs every batch in one process, so it
gets the widest stacks: buckets split at ``max_batch``.  A pool instead
does list scheduling — its FIFO queue hands the next unit to the first
idle worker, so the makespan is at most ``total / jobs + largest unit``,
in any order — and that bound is tight only for small units.  Unless the
caller caps batches itself, a pool therefore gets one cell per unit, and
the cells go out in descending normalized buffer (a stable sort, so grid
order breaks ties): solve cost grows with the buffer, because the chains
must be stepped across a correlation horizon that grows with it, and the
dearest cells should start first.  Single-cell units cost a pool its
kernel stacking.  Nothing is lost at the starting level of the default
config (128 bins run on the direct path, where the kernel steps members
one by one anyway), but cells that refine onto the spectral path, and
configs that start there, are stepped in stacks of one.

A batch of one goes through the same solve loop as any other batch; the
``fallback_solo`` telemetry counter counts the cells that never shared a
stack.  Cache hits never reach the planner: the engine resolves them
before planning, so each task keeps its own fingerprint and cache entry
regardless of how it was batched.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exec.task import SolveTask

__all__ = ["DEFAULT_MAX_BATCH", "plan_batches"]

DEFAULT_MAX_BATCH = 64
"""Widest batch the planner emits unless a caller asks for another cap.

Bounds the stacked state to a few hundred MB at the deepest refinement
level and keeps per-batch latency in check; the kernel further
sub-chunks each FFT call to its own cache-friendly width
(``repro.core.solver.FFT_STACK_BUDGET_BINS``), so planner width is about
scheduling, not FFT efficiency.
"""


def plan_batches(
    pending: Sequence[tuple[int, SolveTask]],
    max_batch: int | None = None,
    jobs: int = 1,
) -> list[list[tuple[int, SolveTask]]]:
    """Group ``(index, task)`` cells into group-compatible batches.

    For a pool (``jobs > 1``) with no ``max_batch``, every cell is its own
    unit, in descending ``normalized_buffer`` order (stable).  Otherwise
    batches come out in first-seen group order, each at most
    ``max_batch`` (default :data:`DEFAULT_MAX_BATCH`) cells, preserving
    the input order of cells within a group.  Flattening the result
    yields a permutation of ``pending``, so the engine can always
    reassemble plan order from the carried indexes.
    """
    if max_batch is not None and max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and max_batch is None:
        dearest_first = sorted(pending, key=lambda cell: cell[1].normalized_buffer, reverse=True)
        return [[cell] for cell in dearest_first]
    width = max_batch or DEFAULT_MAX_BATCH
    buckets: dict[str, list[tuple[int, SolveTask]]] = {}
    for index, task in pending:
        buckets.setdefault(task.batch_key(), []).append((index, task))
    batches: list[list[tuple[int, SolveTask]]] = []
    for bucket in buckets.values():
        for start in range(0, len(bucket), width):
            batches.append(bucket[start : start + width])
    return batches

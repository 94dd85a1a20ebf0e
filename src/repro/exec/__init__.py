"""Sweep execution engine: declarative tasks, backends, cache, telemetry.

Every paper figure is a grid of independent loss-rate solves.  This
package turns those grids into data (:class:`SolveTask` /
:class:`SweepPlan`), executes them through pluggable backends
(:class:`SerialBackend`, :class:`ProcessPoolBackend`), memoizes results
in a persistent content-addressed :class:`SolveCache`, and reports
per-cell :class:`CellTelemetry` through :class:`SweepTelemetry`.

Both backends implement one contract (``jobs`` and ``run_batches``) and
produce identical numbers.  Cache misses are planned into
kernel-stackable batches (:func:`plan_batches`) so shape-compatible
cells advance through one stacked spectral call — regression-tested
bit-identical to the same cells solved as batches of one.
"""

from repro.exec.backends import ProcessPoolBackend, SerialBackend, resolve_backend
from repro.exec.cache import SolveCache, default_cache_dir
from repro.exec.engine import SweepEngine
from repro.exec.planner import DEFAULT_MAX_BATCH, plan_batches
from repro.exec.task import SolveTask, SweepPlan, solve_task_batch
from repro.exec.telemetry import CellTelemetry, ProgressCallback, SweepTelemetry

__all__ = [
    "SolveTask",
    "SweepPlan",
    "solve_task_batch",
    "plan_batches",
    "DEFAULT_MAX_BATCH",
    "SerialBackend",
    "ProcessPoolBackend",
    "resolve_backend",
    "SolveCache",
    "default_cache_dir",
    "SweepEngine",
    "CellTelemetry",
    "SweepTelemetry",
    "ProgressCallback",
]

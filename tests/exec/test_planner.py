"""Batch planner: grouping rules, splitting, and engine integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.solver import SolverConfig
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.exec.cache import SolveCache
from repro.exec.engine import SweepEngine
from repro.exec.planner import DEFAULT_MAX_BATCH, plan_batches
from repro.exec.task import SolveTask, SweepPlan, solve_task_batch
from repro.experiments import paperconfig
from repro.experiments.figures import mtv_source
from repro.experiments.sweeps import plan_buffer_cutoff

FAST = SolverConfig(initial_bins=32, max_bins=128, relative_gap=0.5, max_iterations=2_000)
# Same solver knobs except the discretization start: a different chain
# shape, so tasks under this config can never share a kernel stack.
OTHER_SHAPE = SolverConfig(
    initial_bins=64, max_bins=128, relative_gap=0.5, max_iterations=2_000
)
SPECTRAL = SolverConfig(
    initial_bins=32, max_bins=128, relative_gap=0.5, max_iterations=2_000,
    use_fft=True, fft_threshold_bins=0,
)

BUFFERS = [0.1, 0.2, 0.4, 0.8]


def _tasks(source, buffers=BUFFERS, config=FAST) -> list[SolveTask]:
    return [SolveTask(source, 0.85, buffer, config) for buffer in buffers]


def _pending(tasks) -> list[tuple[int, SolveTask]]:
    return list(enumerate(tasks))


class TestPlanBatches:
    def test_homogeneous_tasks_form_one_batch(self, small_source):
        batches = plan_batches(_pending(_tasks(small_source)))
        assert len(batches) == 1
        assert [index for index, _ in batches[0]] == [0, 1, 2, 3]

    def test_shape_incompatible_configs_never_share_a_batch(self, small_source):
        tasks = _tasks(small_source, buffers=[0.1, 0.2], config=FAST) + _tasks(
            small_source, buffers=[0.1, 0.2], config=OTHER_SHAPE
        )
        batches = plan_batches(_pending(tasks))
        assert len(batches) == 2
        assert [index for index, _ in batches[0]] == [0, 1]
        assert [index for index, _ in batches[1]] == [2, 3]

    def test_interleaved_groups_keep_first_seen_order(self, small_source):
        a = _tasks(small_source, buffers=[0.1, 0.2, 0.4], config=FAST)
        b = _tasks(small_source, buffers=[0.1, 0.2, 0.4], config=OTHER_SHAPE)
        interleaved = [a[0], b[0], a[1], b[1], a[2], b[2]]
        batches = plan_batches(_pending(interleaved))
        assert [[index for index, _ in batch] for batch in batches] == [
            [0, 2, 4],
            [1, 3, 5],
        ]

    def test_max_batch_splits_buckets(self, small_source):
        tasks = _tasks(small_source, buffers=[0.1, 0.2, 0.3, 0.4, 0.5])
        batches = plan_batches(_pending(tasks), max_batch=2)
        assert [len(batch) for batch in batches] == [2, 2, 1]
        assert [index for batch in batches for index, _ in batch] == [0, 1, 2, 3, 4]

    def test_every_batch_is_group_compatible(self, small_source):
        tasks = _tasks(small_source, config=FAST) + _tasks(
            small_source, config=OTHER_SHAPE
        )
        for batch in plan_batches(_pending(tasks)):
            keys = {task.batch_key() for _, task in batch}
            assert len(keys) == 1

    def test_empty_input_plans_nothing(self):
        assert plan_batches([]) == []

    def test_rejects_nonpositive_max_batch(self, small_source):
        with pytest.raises(ValueError, match="max_batch"):
            plan_batches(_pending(_tasks(small_source)), max_batch=0)
        with pytest.raises(ValueError, match="jobs"):
            plan_batches(_pending(_tasks(small_source)), jobs=0)


class TestSolveTaskBatchContract:
    def test_rejects_group_incompatible_tasks(self, small_source):
        tasks = [
            SolveTask(small_source, 0.85, 0.1, FAST),
            SolveTask(small_source, 0.85, 0.2, OTHER_SHAPE),
        ]
        with pytest.raises(ValueError, match="group-compatible"):
            solve_task_batch(tasks)

    def test_empty_batch_returns_empty(self):
        assert solve_task_batch([]) == []

    def test_batch_of_one_takes_the_solo_path(self, small_source):
        task = SolveTask(small_source, 0.85, 0.1, FAST)
        assert solve_task_batch([task]) == [task.run()]

    def test_group_key_ignores_queue_coordinates(self, small_source):
        near = SolveTask(small_source, 0.7, 0.1, FAST)
        far = SolveTask(small_source, 0.95, 2.0, FAST)
        assert near.batch_key() == far.batch_key()
        assert near.cache_key() != far.cache_key()


class RecordingBackend(SerialBackend):
    """Serial backend that remembers every batch the engine planned."""

    def __init__(self) -> None:
        self.batches: list[list[int]] = []

    def run_batches(self, batches):
        materialized = [list(batch) for batch in batches]
        self.batches.extend(
            [index for index, _ in batch] for batch in materialized
        )
        yield from super().run_batches(materialized)


class TestEngineBatching:
    def test_batched_run_is_bit_identical_to_solo_run(self, small_source):
        tasks = _tasks(small_source, config=SPECTRAL)
        batched = SweepEngine().run_tasks(tasks)
        solo = SweepEngine(max_batch=1).run_tasks(tasks)
        assert batched == solo

    def test_cache_hits_never_enter_a_batch(self, small_source, tmp_path):
        tasks = _tasks(small_source)
        warm = SweepEngine(cache=SolveCache(tmp_path))
        warm.solve(tasks[0])
        warm.solve(tasks[2])

        backend = RecordingBackend()
        engine = SweepEngine(backend=backend, cache=SolveCache(tmp_path))
        results = engine.run_tasks(tasks)
        assert engine.telemetry.cache_hits == 2
        assert engine.telemetry.cache_misses == 2
        dispatched = sorted(
            index for batch in backend.batches for index in batch
        )
        assert dispatched == [1, 3]  # only the misses reached the planner
        assert results == [task.run() for task in tasks]

    def test_each_task_keeps_its_own_cache_entry(self, small_source, tmp_path):
        tasks = _tasks(small_source)
        engine = SweepEngine(cache=SolveCache(tmp_path))
        engine.run_tasks(tasks)
        reopened = SolveCache(tmp_path)
        for task in tasks:
            assert reopened.get(task.cache_key()) == task.run()

    def test_explicit_max_batch_bounds_dispatched_batches(self, small_source):
        backend = RecordingBackend()
        engine = SweepEngine(backend=backend, max_batch=3)
        engine.run_tasks(_tasks(small_source))
        assert [len(batch) for batch in backend.batches] == [3, 1]

    def test_engine_rejects_nonpositive_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            SweepEngine(max_batch=0)

    def test_telemetry_separates_batched_and_solo_cells(self, small_source):
        tasks = _tasks(small_source, config=SPECTRAL) + _tasks(
            small_source, buffers=[0.3], config=FAST
        )
        engine = SweepEngine()
        engine.run_tasks(tasks)
        telemetry = engine.telemetry
        # The four spectral tasks stack; the lone FAST task (and any
        # direct-path member) runs solo.
        assert telemetry.batched_tasks == 4
        assert telemetry.fallback_solo == 1
        assert telemetry.batched_tasks + telemetry.fallback_solo == len(tasks)
        shapes = telemetry.batch_shapes()
        assert shapes == {4: 4}
        summary = telemetry.summary()
        assert summary["batched_tasks"] == 4.0
        assert summary["fallback_solo"] == 1.0

    def test_default_plan_width_caps_at_planner_ceiling(self, small_source):
        tasks = _tasks(small_source, buffers=[0.1] * 70, config=SPECTRAL)
        widths = [len(batch) for batch in plan_batches(_pending(tasks))]
        assert widths == [DEFAULT_MAX_BATCH, 70 - DEFAULT_MAX_BATCH]

    def test_pool_plan_width_spreads_pending_over_workers(self, small_source):
        # A pool gets one cell per unit, whatever path the config starts on.
        direct = _tasks(small_source, buffers=[0.1] * 8, config=FAST)
        assert [len(b) for b in plan_batches(_pending(direct), jobs=4)] == [1] * 8
        spectral = _tasks(small_source, buffers=[0.1] * 8, config=SPECTRAL)
        assert [len(b) for b in plan_batches(_pending(spectral), jobs=4)] == [1] * 8
        # An explicit max_batch still wins over the pool sizing.
        assert [len(b) for b in plan_batches(_pending(direct), 3, jobs=4)] == [3, 3, 2]


class PoolStandIn(RecordingBackend):
    """Runs inline like the serial backend but plans as a two-worker pool."""

    jobs = 2


def _cell_cost(result) -> int:
    """Deterministic solve cost: steps times bins, summed over levels."""
    return sum(bins * steps for bins, steps in result.stats.steps_per_level)


def _list_schedule_makespan(unit_costs, jobs: int) -> int:
    """Makespan of a FIFO queue handing each unit to the first idle worker."""
    loads = [0] * jobs
    for cost in unit_costs:
        loads[loads.index(min(loads))] += cost
    return max(loads)


class TestPoolPlanning:
    def test_pool_cells_start_largest_buffer_first(self, small_source):
        tasks = _tasks(small_source, buffers=[0.1, 0.8, 0.2, 0.8, 0.4])
        pooled = plan_batches(_pending(tasks), jobs=2)
        # Stable: the two 0.8 cells keep their grid order.
        assert [index for batch in pooled for index, _ in batch] == [1, 3, 4, 2, 0]
        serial = plan_batches(_pending(tasks))
        assert [[index for index, _ in batch] for batch in serial] == [[0, 1, 2, 3, 4]]
        # The order is global: it does not follow the group buckets.
        mixed = _tasks(small_source, buffers=[0.1, 0.4]) + _tasks(
            small_source, buffers=[0.2, 0.8], config=OTHER_SHAPE
        )
        pooled = plan_batches(_pending(mixed), jobs=2)
        assert [index for batch in pooled for index, _ in batch] == [3, 1, 2, 0]

    def test_pool_units_balance_a_small_mtv_grid(self):
        # Solve cost grows with the buffer, so on a row-major grid the
        # large-buffer rows hold most of the work; a split into one
        # contiguous half per worker leaves one worker with nearly all of it.
        plan = plan_buffer_cutoff(
            mtv_source(4096),
            paperconfig.MTV_UTILIZATION,
            np.array([0.02, 0.05, 0.5, 1.0]),
            np.array([6.0, 8.0, 10.0, 12.0]),
        )
        backend = PoolStandIn()
        results = SweepEngine(backend=backend).run_tasks(plan.tasks)
        costs = [_cell_cost(result) for result in results]
        units = [sum(costs[index] for index in batch) for batch in backend.batches]
        bound = sum(costs) / backend.jobs + max(costs)
        assert _list_schedule_makespan(units, backend.jobs) <= bound

    def test_pool_grid_matches_serial_on_mixed_buckets(self, small_source):
        # Row 0 starts on the direct path, row 1 on the spectral path; the
        # serial run stacks row 1, the pool runs every cell on its own.
        tasks = _tasks(small_source, config=FAST) + _tasks(small_source, config=SPECTRAL)
        plan = SweepPlan("config", "buffer_s", [0.0, 1.0], BUFFERS, tasks)
        serial_engine = SweepEngine()
        serial = serial_engine.run_grid(plan)
        assert serial_engine.telemetry.batched_tasks == len(BUFFERS)
        with SweepEngine(backend=ProcessPoolBackend(jobs=2)) as engine:
            pooled = engine.run_grid(plan)
            assert engine.telemetry.fallback_solo == len(tasks)
        np.testing.assert_array_equal(pooled, serial)

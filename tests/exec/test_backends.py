"""Tests for the serial and process-pool execution backends."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.solver import SolverConfig
from repro.exec.backends import ProcessPoolBackend, SerialBackend, resolve_backend
from repro.exec.task import SolveTask

FAST = SolverConfig(initial_bins=32, max_bins=128, relative_gap=0.5, max_iterations=2_000)


@pytest.fixture
def indexed_tasks(small_source):
    buffers = (0.1, 0.3, 0.6)
    return [
        (i, SolveTask(small_source, 0.85, b, FAST)) for i, b in enumerate(buffers)
    ]


def _singles(indexed_tasks):
    """One batch per cell, in task order."""
    return [[pair] for pair in indexed_tasks]


def _flatten(batch_results):
    return [triple for batch_result in batch_results for triple in batch_result]


class TestSerialBackend:
    def test_runs_in_task_order(self, indexed_tasks):
        triples = _flatten(SerialBackend().run_batches(_singles(indexed_tasks)))
        assert [index for index, _, _ in triples] == [0, 1, 2]
        assert all(seconds >= 0.0 for _, _, seconds in triples)

    def test_matches_direct_solves(self, indexed_tasks):
        for batches in (_singles(indexed_tasks), [indexed_tasks]):
            triples = _flatten(SerialBackend().run_batches(batches))
            for (index, result, _), (_, task) in zip(triples, indexed_tasks):
                direct = task.run()
                assert result.lower == direct.lower
                assert result.upper == direct.upper


class TestProcessPoolBackend:
    def test_single_job_falls_back_to_serial(self, indexed_tasks):
        triples = _flatten(
            ProcessPoolBackend(jobs=1).run_batches(_singles(indexed_tasks))
        )
        assert [index for index, _, _ in triples] == [0, 1, 2]

    def test_pool_results_match_serial_bitwise(self, indexed_tasks):
        serial = {
            i: r for i, r, _ in _flatten(SerialBackend().run_batches([indexed_tasks]))
        }
        with ProcessPoolBackend(jobs=2) as backend:
            pooled = {
                i: r
                for i, r, _ in _flatten(backend.run_batches(_singles(indexed_tasks)))
            }
        assert set(pooled) == set(serial)
        for index, result in pooled.items():
            assert result.lower == serial[index].lower
            assert result.upper == serial[index].upper
            assert result.iterations == serial[index].iterations

    def test_empty_task_list(self):
        backend = ProcessPoolBackend(jobs=2)
        assert list(backend.run_batches([])) == []
        assert list(backend.run_batches([[], []])) == []
        assert backend._pool is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="jobs"):
            ProcessPoolBackend(jobs=-2)


class TestWarmPool:
    """The executor is created once and survives across run_batches() calls."""

    def test_pool_persists_across_runs(self, indexed_tasks):
        with ProcessPoolBackend(jobs=2) as backend:
            assert backend._pool is None  # lazy: nothing until first run
            list(backend.run_batches(_singles(indexed_tasks)))
            pool = backend._pool
            assert pool is not None
            list(backend.run_batches(_singles(indexed_tasks)))
            assert backend._pool is pool  # same warm executor, no restart
        assert backend._pool is None  # context exit shuts it down

    def test_close_is_idempotent(self):
        backend = ProcessPoolBackend(jobs=2)
        backend.close()  # never warmed — still fine
        backend._executor()
        backend.close()
        backend.close()
        assert backend._pool is None

    def test_run_after_close_recreates_the_pool(self, indexed_tasks):
        backend = ProcessPoolBackend(jobs=2)
        first = {
            i: r.lower
            for i, r, _ in _flatten(backend.run_batches(_singles(indexed_tasks)))
        }
        assert backend._pool is not None
        backend.close()
        second = {
            i: r.lower
            for i, r, _ in _flatten(backend.run_batches(_singles(indexed_tasks)))
        }
        assert backend._pool is not None
        backend.close()
        assert first == second

    def test_serial_fallback_does_not_warm_the_pool(self, indexed_tasks):
        backend = ProcessPoolBackend(jobs=1)
        list(backend.run_batches(_singles(indexed_tasks)))
        assert backend._pool is None

    def test_prefers_fork_where_available(self):
        backend = ProcessPoolBackend(jobs=2)
        if "fork" in multiprocessing.get_all_start_methods():
            assert backend.start_method == "fork"
        else:  # pragma: no cover - non-fork platforms
            assert backend.start_method is None

    def test_explicit_start_method_wins(self):
        assert ProcessPoolBackend(jobs=2, start_method="spawn").start_method == "spawn"


class TestResolveBackend:
    def test_serial_for_none_and_one(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend(0), SerialBackend)
        assert isinstance(resolve_backend(1), SerialBackend)

    def test_pool_for_many(self):
        backend = resolve_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 3

"""Tests for the in-memory LRU tier, alone and composed with singleflight.

The composition tests drive the full :class:`QueryService` facade: N
concurrent identical requests must cost exactly one solve, later
identical requests must be answered from memory, eviction must follow
recency order, and a solver error must leave no residue in the
singleflight map.
"""

from __future__ import annotations

import threading

import pytest

from repro.serve.lru import MemoryLRU
from repro.serve.protocol import parse_request
from repro.serve.service import QueryService

from tests.serve.test_service import RESULT, GateEngine, _loss, _poll


class TestMemoryLRU:
    def test_get_put_and_counters(self):
        lru = MemoryLRU(max_entries=4)
        assert lru.get("a") is None
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert "a" in lru and len(lru) == 1
        snap = lru.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1 and snap["evictions"] == 0

    def test_eviction_follows_recency_order(self):
        lru = MemoryLRU(max_entries=3)
        for key in ("a", "b", "c"):
            lru.put(key, key.upper())
        lru.get("a")  # refresh: "b" is now least recently used
        lru.put("d", "D")
        assert "b" not in lru
        assert all(key in lru for key in ("a", "c", "d"))
        assert lru.evictions == 1

    def test_byte_bound_evicts_but_keeps_at_least_one_entry(self):
        lru = MemoryLRU(max_entries=100, max_bytes=1)
        lru.put("k1", "x" * 100)
        lru.put("k2", "y" * 100)
        # Each entry alone exceeds the bound; the newest always survives.
        assert len(lru) == 1 and "k2" in lru
        assert lru.evictions == 1

    def test_refreshing_a_key_does_not_double_count_bytes(self):
        lru = MemoryLRU(max_entries=4)
        lru.put("a", "xxxx")
        before = lru.snapshot()["bytes"]
        lru.put("a", "xxxx")
        assert lru.snapshot()["bytes"] == before
        assert len(lru) == 1

    def test_result_payloads_are_sized(self):
        lru = MemoryLRU(max_entries=4)
        lru.put("solve-key", RESULT)
        assert lru.snapshot()["bytes"] > len("solve-key")

    def test_clear_preserves_counters(self):
        lru = MemoryLRU(max_entries=4)
        lru.put("a", 1)
        lru.get("a")
        lru.clear()
        assert len(lru) == 0
        assert lru.hits == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MemoryLRU(max_entries=0)
        with pytest.raises(ValueError):
            MemoryLRU(max_entries=4, max_bytes=0)


class TestTierSizing:
    def test_lru_sizes_itself_from_the_disk_cache_hints(self, tmp_path):
        from repro.exec.cache import SolveCache

        engine = GateEngine()
        engine.cache = SolveCache(tmp_path, max_entries=17, max_bytes=1 << 16)
        service = QueryService(engine)
        try:
            assert service.core.lru.max_entries == 17
            assert service.core.lru.max_bytes == 1 << 16
        finally:
            service.close()

    def test_explicit_bounds_beat_the_hints(self, tmp_path):
        from repro.exec.cache import SolveCache

        engine = GateEngine()
        engine.cache = SolveCache(tmp_path, max_entries=17)
        service = QueryService(engine, lru_entries=5, lru_bytes=1 << 10)
        try:
            assert service.core.lru.max_entries == 5
            assert service.core.lru.max_bytes == 1 << 10
        finally:
            service.close()

    def test_default_when_no_hints(self):
        from repro.serve.lru import DEFAULT_LRU_ENTRIES

        service = QueryService(GateEngine())
        try:
            assert service.core.lru.max_entries == DEFAULT_LRU_ENTRIES
            assert service.core.lru.max_bytes is None
        finally:
            service.close()


class TestTieredService:
    def test_concurrent_identical_requests_one_solve_then_memory_hits(self):
        gate = threading.Event()
        engine = GateEngine(gate)
        service = QueryService(engine, batch_size=4, batch_delay_s=0.005)
        request = _loss()
        responses: list[dict] = []
        lock = threading.Lock()

        def ask() -> None:
            response = service.query(request)
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=ask) for _ in range(6)]
        try:
            for thread in threads:
                thread.start()
            _poll(lambda: service.core.singleflight.hits == 5, message="5 followers attached")
            gate.set()
            for thread in threads:
                thread.join(timeout=10)
            # Exactly one backend solve for six concurrent identical requests.
            assert engine.total_tasks == 1
            assert len(responses) == 6
            assert sum(1 for r in responses if r["tier"] == "engine") == 1
            assert sum(1 for r in responses if r["tier"] == "flight") == 5
            # Later identical requests replay from the memory tier without
            # opening a new singleflight window.
            leaders_before = service.core.singleflight.leaders
            for _ in range(3):
                assert service.query(request)["tier"] == "memory"
            assert engine.total_tasks == 1
            assert service.core.singleflight.leaders == leaders_before
            assert service.core.lru.hits == 3
        finally:
            gate.set()
            service.close()

    def test_lru_eviction_forces_a_resolve(self):
        engine = GateEngine()
        service = QueryService(
            engine, batch_size=1, batch_delay_s=0.0, lru_entries=2
        )
        try:
            hot = _loss(buffer=0.30)
            service.query(hot)
            service.query(_loss(buffer=0.31))
            service.query(_loss(buffer=0.32))  # evicts the 0.30 entry
            assert service.core.lru.evictions == 1
            response = service.query(hot)
            assert response["tier"] == "engine"  # memory miss → solved again
            assert engine.total_tasks == 4
        finally:
            service.close()

    def test_solver_error_cleans_the_inflight_map_and_propagates(self):
        class ExplodingEngine(GateEngine):
            def run_tasks(self, tasks):
                raise RuntimeError("kernel exploded")

        engine = ExplodingEngine()
        service = QueryService(engine, batch_size=1, batch_delay_s=0.0)
        try:
            with pytest.raises(RuntimeError, match="kernel exploded"):
                service.query(_loss())
            # The window closed: nothing in flight, nothing cached.
            assert service.core.singleflight.inflight == 0
            assert len(service.core.lru) == 0
            assert service.core.errors == 1
            # The same fingerprint can be retried and leads a new window.
            with pytest.raises(RuntimeError, match="kernel exploded"):
                service.query(_loss())
            assert service.core.singleflight.leaders == 2
        finally:
            service.close()

    def test_dimension_error_cleans_the_inflight_map(self):
        engine = GateEngine()
        service = QueryService(engine)
        bad = parse_request(
            # A structurally valid dimension request whose bisection fails:
            # target loss far above what a 0-buffer system can miss is fine,
            # so instead drive utilization ~1 where dimensioning explodes.
            {"kind": "dimension", "hurst": 0.7, "cutoff": 2.0, "buffer": 0.3,
             "target_loss": 0.9999, "utilization": 0.999,
             "relative_gap": 0.5, "initial_bins": 32, "max_bins": 64}
        )
        try:
            try:
                service.query(bad)
            except Exception:
                pass  # outcome depends on the solver; cleanliness must not
            assert service.core.singleflight.inflight == 0
        finally:
            service.close()

"""Tests for the persistent JSON-lines solve cache."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.results import LossRateResult
from repro.exec.cache import SolveCache, default_cache_dir

RESULT = LossRateResult(
    lower=1.0 / 3.0, upper=0.5000000000000007, iterations=96,
    bins=256, converged=True, negligible=False,
)


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LRD_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == str(tmp_path / "override")

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_LRD_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == str(tmp_path / "xdg" / "repro-lrd")


class TestSolveCache:
    def test_rejects_a_file_as_directory(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.touch()
        with pytest.raises(ValueError, match="not a directory"):
            SolveCache(target)

    def test_round_trip_is_float_exact(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        loaded = cache.get("k1")
        assert loaded == RESULT
        assert loaded.lower == RESULT.lower  # bit-exact, not approx

    def test_hit_and_miss_accounting(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.get("absent") is None
        cache.put("k1", RESULT)
        assert cache.get("k1") is not None
        assert cache.get("absent") is None
        assert cache.hits == 1
        assert cache.misses == 2

    def test_persists_across_instances(self, tmp_path):
        SolveCache(tmp_path).put("k1", RESULT)
        reopened = SolveCache(tmp_path)
        assert len(reopened) == 1
        assert "k1" in reopened
        assert reopened.get("k1") == RESULT

    def test_duplicate_puts_write_one_record(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        cache.put("k1", RESULT)
        lines = cache.path.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_corrupt_lines_are_skipped(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        with cache.path.open("a") as handle:
            handle.write("{truncated garba\n")
            handle.write("\n")
        reopened = SolveCache(tmp_path)
        assert len(reopened) == 1
        assert reopened.get("k1") == RESULT

    def test_non_finite_record_is_a_miss(self, tmp_path):
        # json.loads reads NaN/Infinity, so such a line parses; it must
        # still never be served as an answer (Prop. II.1 needs finite bounds).
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        with cache.path.open("a") as handle:
            handle.write(
                '{"key": "bad", "lower": NaN, "upper": NaN, "iterations": 1, '
                '"bins": 1, "converged": true, "negligible": false}\n'
            )
            handle.write(
                '{"key": "k1", "lower": 0.1, "upper": Infinity, "iterations": 1, '
                '"bins": 1, "converged": true, "negligible": false}\n'
            )
        reopened = SolveCache(tmp_path)
        assert reopened.get("bad") is None
        assert reopened.get("k1") == RESULT  # the bad later line does not win
        assert len(reopened) == 1

    def test_clear_drops_memory_and_disk(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        cache.clear()
        assert len(cache) == 0
        assert not cache.path.exists()
        assert SolveCache(tmp_path).get("k1") is None


class TestBulkApi:
    def test_get_many_preserves_order_and_accounting(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        cache.put("k3", RESULT)
        loaded = cache.get_many(["k1", "k2", "k3", "k4"])
        assert loaded == [RESULT, None, RESULT, None]
        assert cache.hits == 2
        assert cache.misses == 2

    def test_get_many_of_nothing(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.get_many([]) == []
        assert cache.hits == 0 and cache.misses == 0

    def test_put_many_round_trips_and_counts_fresh_writes(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.put_many([("k1", RESULT), ("k2", RESULT)]) == 2
        reopened = SolveCache(tmp_path)
        assert reopened.get("k1") == RESULT
        assert reopened.get("k2") == RESULT

    def test_put_many_skips_present_keys(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        written = cache.put_many([("k1", RESULT), ("k2", RESULT)])
        assert written == 1
        lines = cache.path.read_text().strip().splitlines()
        assert len(lines) == 2  # one line per distinct key, no duplicates

    def test_put_many_appends_one_write_per_batch(self, tmp_path):
        # The whole batch lands as consecutive intact JSON lines even when
        # another writer left a truncated trailing line first.
        cache = SolveCache(tmp_path)
        cache.put("k0", RESULT)
        with cache.path.open("a") as handle:
            handle.write('{"key": "dead", "lower": 0.1')  # crashed writer
        cache.put_many([(f"b{i}", RESULT) for i in range(5)])
        reopened = SolveCache(tmp_path)
        assert len(reopened) == 6
        assert all(f"b{i}" in reopened for i in range(5))
        assert "dead" not in reopened

    def test_empty_put_many_is_a_noop(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.put_many([]) == 0
        assert not cache.path.exists() or cache.path.read_text() == ""


class TestConcurrentWriters:
    def test_truncated_trailing_line_is_tolerated_and_repaired(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        with cache.path.open("a") as handle:
            handle.write('{"key": "k2", "lower": 0.1')  # writer died mid-record
        # Loading skips the damage instead of raising.
        reopened = SolveCache(tmp_path)
        assert len(reopened) == 1
        # The next append confines the damage to its own line.
        reopened.put("k3", RESULT)
        final = SolveCache(tmp_path)
        assert "k1" in final and "k3" in final
        assert "k2" not in final

    def test_interleaved_instances_lose_no_records(self, tmp_path):
        """Two handles to one file (as two server workers would hold)."""
        writers = [SolveCache(tmp_path) for _ in range(2)]
        errors: list[Exception] = []

        def append(writer: SolveCache, offset: int) -> None:
            try:
                for i in range(50):
                    writer.put(f"w{offset}-{i}", RESULT)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=append, args=(writer, n))
            for n, writer in enumerate(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        merged = SolveCache(tmp_path)
        assert len(merged) == 100
        # Every line in the file is intact JSON.
        for line in merged.path.read_text().strip().splitlines():
            assert json.loads(line)["key"].startswith("w")


class TestCompact:
    def _duplicate_lines(self, cache: SolveCache, key: str, times: int) -> None:
        record = json.dumps({
            "key": key, "lower": RESULT.lower, "upper": RESULT.upper,
            "iterations": RESULT.iterations, "bins": RESULT.bins,
            "converged": RESULT.converged, "negligible": RESULT.negligible,
        })
        with cache.path.open("a") as handle:
            for _ in range(times):
                handle.write(record + "\n")

    def test_compact_keeps_one_record_per_key(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        cache.put("k2", RESULT)
        self._duplicate_lines(cache, "k1", 5)
        before, after = cache.compact()
        assert (before, after) == (7, 2)
        reopened = SolveCache(tmp_path)
        assert len(reopened) == 2
        assert reopened.get("k1") == RESULT

    def test_compact_empty_cache(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.compact() == (0, 0)
        cache.put("k1", RESULT)
        cache.clear()
        assert cache.compact() == (0, 0)
        assert not cache.path.exists()

    def test_compact_drops_corrupt_lines(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        with cache.path.open("a") as handle:
            handle.write("{broken\n")
        before, after = cache.compact()
        assert (before, after) == (2, 1)

    def test_file_stats(self, tmp_path):
        cache = SolveCache(tmp_path)
        stats = cache.file_stats()
        assert stats["entries"] == 0
        assert stats["file_bytes"] == 0
        cache.put("k1", RESULT)
        self._duplicate_lines(cache, "k1", 2)
        stats = SolveCache(tmp_path).file_stats()
        assert stats["entries"] == 1
        assert stats["file_lines"] == 3
        assert stats["stale_lines"] == 2
        assert stats["file_bytes"] > 0
        # The store carries no sizing knobs: the memory tier sizes itself.
        assert set(stats) == {
            "path", "entries", "file_lines", "file_bytes", "stale_lines"
        }

"""Persistent on-disk cache of solver results.

Solve results are immutable functions of their task parameters, so the
cache is content-addressed: the key is the SHA-256 fingerprint of the
task payload (see :mod:`repro.core.fingerprint`), and the value is the
full :class:`~repro.core.results.LossRateResult`.  Storage is a JSON-lines
file (one record per line, append-only) under a configurable directory —
human-inspectable, concatenation-safe, and trivially merged across
machines.

Invalidation is by key construction, not by mutation: any change to a
task parameter or to the payload encoding (``PAYLOAD_VERSION``) yields a
different key, so stale entries are never *read* — they just age in the
file.  :meth:`SolveCache.compact` rewrites the file keeping the last
record per key when that aging matters.  Deleting the cache directory is
always safe.

Concurrency: multiple processes (server workers, parallel CLI runs) may
share one cache file.  Appends are serialized through an advisory
``fcntl`` lock on a sidecar ``.lock`` file (a no-op on platforms without
``fcntl``), each record is written in a single ``write`` call terminated
by a newline, and loading tolerates a truncated or corrupt trailing line
— a reader racing a writer sees at worst one unparseable record, which
is skipped, never an exception.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path

try:  # POSIX advisory locking; gracefully absent elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.core.results import LossRateResult

__all__ = ["SolveCache", "default_cache_dir"]

_CACHE_FILENAME = "solve_cache.jsonl"
_LOCK_FILENAME = "solve_cache.lock"


def default_cache_dir() -> str:
    """The cache location used when none is given.

    ``REPRO_LRD_CACHE_DIR`` overrides; otherwise
    ``$XDG_CACHE_HOME/repro-lrd`` (defaulting to ``~/.cache/repro-lrd``).
    """
    override = os.environ.get("REPRO_LRD_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join("~", ".cache")
    return os.path.join(os.path.expanduser(xdg), "repro-lrd")


class SolveCache:
    """JSON-lines store mapping task fingerprints to solver results.

    The whole store is loaded into memory on first access (records are a
    few hundred bytes each); writes append both in memory and on disk, so
    a warm rerun of any sweep costs one file read.  The store is
    append-only (:meth:`compact` reclaims stale lines); the serving
    layer's in-memory :class:`~repro.serve.lru.MemoryLRU` tier sits above
    it and is sized on its own.
    """

    def __init__(self, directory: str | os.PathLike[str] | None = None) -> None:
        self.directory = Path(directory) if directory is not None else Path(default_cache_dir())
        if self.directory.exists() and not self.directory.is_dir():
            raise ValueError(f"cache directory {self.directory} is not a directory")
        self.path = self.directory / _CACHE_FILENAME
        self.hits = 0
        self.misses = 0
        self._store: dict[str, LossRateResult] | None = None

    # ------------------------------------------------------------------ #
    # storage
    # ------------------------------------------------------------------ #

    @contextmanager
    def _file_lock(self) -> Iterator[None]:
        """Advisory cross-process lock serializing writers (no-op sans fcntl)."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        with (self.directory / _LOCK_FILENAME).open("a") as lock_handle:
            fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)

    def _read_records(self) -> dict[str, LossRateResult]:
        """Parse the JSONL file, last record per key wins, corrupt lines skipped."""
        store: dict[str, LossRateResult] = {}
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        store[record["key"]] = _result_from_record(record)
                    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                        continue  # truncated/corrupt line (e.g. a racing writer)
        return store

    def _load(self) -> dict[str, LossRateResult]:
        if self._store is None:
            self._store = self._read_records()
        return self._store

    def __len__(self) -> int:
        return len(self._load())

    def __contains__(self, key: str) -> bool:
        return key in self._load()

    def get(self, key: str) -> LossRateResult | None:
        """Look up a result, counting the hit or miss."""
        result = self._load().get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def get_many(self, keys: Sequence[str]) -> list[LossRateResult | None]:
        """Bulk :meth:`get`: one result-or-None per key, in key order.

        A single pass over the in-memory store with the same hit/miss
        accounting as per-key lookups; the batched engine uses this so a
        plan's cache scan is one call instead of one per cell.
        """
        store = self._load()
        results: list[LossRateResult | None] = []
        for key in keys:
            result = store.get(key)
            if result is None:
                self.misses += 1
            else:
                self.hits += 1
            results.append(result)
        return results

    def put(self, key: str, result: LossRateResult) -> None:
        """Store a result in memory and append it to the JSONL file.

        The append runs under the advisory file lock so concurrent
        writers (server workers sharing one cache directory) interleave
        whole records, never bytes.  If the file's last byte is not a
        newline — a writer died mid-record — a newline is inserted first
        so the earlier damage stays confined to its own line.
        """
        self.put_many([(key, result)])

    def put_many(self, items: Iterable[tuple[str, LossRateResult]]) -> int:
        """Bulk :meth:`put`: one lock acquisition and one append per batch.

        Already-present keys are skipped (first write wins, as for
        :meth:`put`); the fresh records are serialized into a single
        ``write`` call under one advisory-lock round trip, so a batch of
        N results costs one file append instead of N lock/open/fsync
        cycles.  Returns the number of records actually written.
        """
        store = self._load()
        fresh: list[str] = []
        for key, result in items:
            if key in store:
                continue
            store[key] = result
            fresh.append(json.dumps(_record_from_result(key, result)))
        if not fresh:
            return 0
        payload = ("\n".join(fresh) + "\n").encode("utf-8")
        self.directory.mkdir(parents=True, exist_ok=True)
        with self._file_lock():
            repair = b""
            if self.path.exists() and self.path.stat().st_size > 0:
                with self.path.open("rb") as handle:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        repair = b"\n"
            with self.path.open("ab") as handle:
                handle.write(repair + payload)
        return len(fresh)

    def clear(self) -> None:
        """Drop every entry (memory and disk)."""
        self._store = {}
        with self._file_lock():
            if self.path.exists():
                self.path.unlink()

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def compact(self) -> tuple[int, int]:
        """Rewrite the JSONL keeping the last record per key.

        Returns ``(lines_before, lines_after)``.  The rewrite happens
        under the file lock via an atomic rename, so concurrent readers
        see either the old file or the new one, never a partial file;
        the in-memory store is refreshed from the compacted contents.
        """
        with self._file_lock():
            lines_before = 0
            if self.path.exists():
                with self.path.open("r", encoding="utf-8") as handle:
                    lines_before = sum(1 for line in handle if line.strip())
            store = self._read_records()
            self._store = store
            if not store:
                if self.path.exists():
                    self.path.unlink()
                return lines_before, 0
            tmp_path = self.path.with_suffix(".jsonl.tmp")
            with tmp_path.open("w", encoding="utf-8") as handle:
                for key, result in store.items():
                    handle.write(json.dumps(_record_from_result(key, result)) + "\n")
            os.replace(tmp_path, self.path)
        return lines_before, len(store)

    def file_stats(self) -> dict:
        """Snapshot for ``repro-lrd cache --stats`` and the serve layer."""
        lines = 0
        size = 0
        if self.path.exists():
            size = self.path.stat().st_size
            with self.path.open("r", encoding="utf-8") as handle:
                lines = sum(1 for line in handle if line.strip())
        return {
            "path": str(self.path),
            "entries": len(self._load()),
            "file_lines": lines,
            "file_bytes": size,
            "stale_lines": max(0, lines - len(self._load())),
        }


def _record_from_result(key: str, result: LossRateResult) -> dict:
    return {
        "key": key,
        "lower": result.lower,
        "upper": result.upper,
        "iterations": result.iterations,
        "bins": result.bins,
        "converged": result.converged,
        "negligible": result.negligible,
    }


def _result_from_record(record: dict) -> LossRateResult:
    return LossRateResult(
        lower=float(record["lower"]),
        upper=float(record["upper"]),
        iterations=int(record["iterations"]),
        bins=int(record["bins"]),
        converged=bool(record["converged"]),
        negligible=bool(record["negligible"]),
    )

"""Latency tracking for the query service's ``/stats`` endpoint.

The service records one duration per request per *stage* — time spent
queued, time solving, end-to-end — into bounded :class:`LatencyTracker`
reservoirs and reports nearest-rank percentiles over the most recent
window.  Engine-side numbers (cache hits, solver iterations, kernel
seconds) are not re-counted here; the service snapshot embeds the
:class:`~repro.exec.telemetry.SweepTelemetry` summary directly, so the
serving layer and the batch CLI report cache/solver behaviour through
one code path.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["LatencyTracker", "PERCENTILES"]

PERCENTILES = (0.50, 0.90, 0.99)
"""Levels reported for every stage (p50/p90/p99)."""


class LatencyTracker:
    """Bounded reservoir of durations with nearest-rank percentiles.

    Keeps the most recent ``window`` samples (a deque, so recording is
    O(1) and lock-cheap); percentiles sort a copy on demand, which is
    fine at ``/stats`` polling rates.  ``count`` keeps counting past the
    window so throughput math stays exact.
    """

    def __init__(self, window: int = 4096) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._samples: deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()
        self._count = 0
        self._total = 0.0

    def record(self, seconds: float) -> None:
        """Add one duration (negative clock skew is clamped to zero)."""
        seconds = max(0.0, float(seconds))
        with self._lock:
            self._samples.append(seconds)
            self._count += 1
            self._total += seconds

    @property
    def count(self) -> int:
        """Durations recorded over the tracker's lifetime (not the window)."""
        with self._lock:
            return self._count

    def percentile(self, level: float) -> float:
        """Nearest-rank percentile over the retained window (0 when empty)."""
        if not (0.0 < level <= 1.0):
            raise ValueError(f"level must lie in (0, 1], got {level}")
        with self._lock:
            ordered = sorted(self._samples)
        return _nearest_rank(ordered, level)

    def snapshot(self) -> dict:
        """JSON-able summary: count, mean, and the standard percentiles."""
        with self._lock:
            ordered = sorted(self._samples)
            count, total = self._count, self._total
        out: dict = {
            "count": count,
            "mean_s": (total / count) if count else 0.0,
        }
        for level in PERCENTILES:
            out[f"p{int(level * 100)}_s"] = _nearest_rank(ordered, level)
        return out


def _nearest_rank(ordered: list[float], level: float) -> float:
    """Nearest-rank ``level`` percentile of sorted samples (0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-int(level * 1000) * len(ordered) // 1000))
    return ordered[min(rank, len(ordered)) - 1]

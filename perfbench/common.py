"""Shared pieces of the benchmark: statistics, spans, provenance, answer checks.

Nothing here imports ``repro``; the workload modules do, after ``run.py``
has put the checkout's ``src`` directory first on ``sys.path``.
"""

from __future__ import annotations

import contextvars
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import platform
import statistics
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

OUT_DIR = Path(".perfbench")
"""Where runs write span logs and result records (inside the checkout)."""


def percentile(values: list[float], level: float) -> float:
    """Nearest-rank percentile, ``level`` in (0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, level: float) -> int:
    """How many samples of ``count`` lie strictly beyond the ``level`` percentile."""
    return count - max(1, math.ceil(level / 100.0 * count))


# --------------------------------------------------------------------- #
# host speed
# --------------------------------------------------------------------- #

REFERENCE_STEP_US = 50.0
"""Microseconds of one reference step on the quiet 2-CPU reference host.
Host-scaled figures read as if every reference step had taken this long."""
GAUGE_SECONDS = 0.6
"""How long one gauge sample runs the reference step."""


def reference_step_us(seconds: float) -> float:
    """Run the fixed reference step for about ``seconds``; microseconds per step.

    The step is shaped like the solver's inner loop (an FFT convolution of
    two 800-point rows, clipping and a cumulative sum: small numpy arrays,
    so much of its time is call overhead) but shares no code with the
    program, so a change to the program cannot move it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 2, 800))
    kernel = np.fft.rfft(rng.standard_normal((1, 2, 800)), axis=-1)
    steps = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for _ in range(100):
            y = np.fft.irfft(np.fft.rfft(x, axis=-1) * kernel, n=800, axis=-1)
            y = np.minimum(np.maximum(y, 0.0), 1.0)
            x = np.cumsum(y, axis=-1) * 1e-3 + x * 0.999
        steps += 100
    return (time.perf_counter() - start) / steps * 1e6


class HostGauge:
    """Samples the shared host's speed between timed passes.

    The reference host lends the benchmark two vCPUs of a machine whose
    other tenants slow it by 1.5-3x for tens of seconds at a time, more
    than any run can average out.  Timed passes alternate with gauge
    samples; a pass's host-scaled time is its wall time times
    ``REFERENCE_STEP_US`` over the mean reference step of the run, so a
    slow stretch of host stretches both and cancels.  Each kind of sample
    mimics where the timed work runs: ``single`` in this process, ``worker``
    in one worker process while this one waits (as a pool pass whose work
    sits in one batch), ``paired`` as two copies at once in two worker
    processes (work busy on both vCPUs).  Make it before any server or
    pool starts, so its workers inherit none of their descriptors;
    :meth:`close` ends them.
    """

    def __init__(self) -> None:
        self.single: list[float] = []
        self.worker: list[float] = []
        self.paired: list[float] = []
        self._pool = ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("fork")
        )
        # Warm both paths (worker start, numpy's FFT set-up) before the first
        # sample; a cold first sample read 1.5x slow.
        reference_step_us(0.1)
        self._paired(0.1)

    def _paired(self, seconds: float) -> float:
        futures = [self._pool.submit(reference_step_us, seconds) for _ in range(2)]
        return statistics.fmean(f.result() for f in futures)

    def sample_single(self) -> None:
        self.single.append(reference_step_us(GAUGE_SECONDS))

    def sample_worker(self) -> None:
        self.worker.append(self._pool.submit(reference_step_us, GAUGE_SECONDS).result())

    def sample_paired(self) -> None:
        self.paired.append(self._paired(GAUGE_SECONDS))

    @staticmethod
    def scale(samples: list[float]) -> float:
        """Factor from wall time to host-scaled time over ``samples``."""
        return REFERENCE_STEP_US / statistics.fmean(samples)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder sharing one run ID; written out at the end.

    A disabled tracer records nothing, so the untraced passes run through
    the same code with only a falsy check per call site.
    """

    def __init__(self, enabled: bool, run_id: str | None = None) -> None:
        self.enabled = enabled
        self.run_id = run_id or uuid.uuid4().hex[:16]
        self.spans: list[Span] = []
        self._ids = itertools.count()  # next() is atomic: spans come from several threads
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            f"span-{self.run_id}", default=None
        )

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        record = Span(name, next(self._ids), self._current.get(), time.perf_counter(),
                      attrs=attrs)
        self.spans.append(record)
        token = self._current.set(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._current.reset(token)

    def add(self, name: str, start: float, end: float, **attrs) -> Span | None:
        """Record an already-timed interval as a child of the current span."""
        if not self.enabled:
            return None
        record = Span(name, next(self._ids), self._current.get(), start, end, attrs)
        self.spans.append(record)
        return record

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def self_seconds(self, name: str) -> float:
        """Sum over ``name`` spans of duration minus the time children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        total = 0.0
        for s in self.named(name):
            covered, reach = 0.0, s.start
            for child in sorted(children.get(s.span_id, []), key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += s.seconds - covered
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "run_id": self.run_id, "span_id": s.span_id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


# --------------------------------------------------------------------- #
# answer checks
# --------------------------------------------------------------------- #


def loss_answer_ok(answer: object) -> bool:
    """Prop. II.1 on a served or solved loss answer: finite, 0 <= lower <= upper <= 1.

    The estimate is finite and in [0, 1] too; it need not lie between the
    bounds (a negligible loss reports 0).  Accepts the JSON payload
    (``lower``/``upper``/``estimate`` keys) or a ``LossRateResult``.
    """
    if isinstance(answer, dict):
        values = [answer.get("lower"), answer.get("upper"), answer.get("estimate")]
    else:
        values = [getattr(answer, n, None) for n in ("lower", "upper", "estimate")]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return False
    lower, upper, estimate = (float(v) for v in values)
    if not all(math.isfinite(v) for v in (lower, upper, estimate)):
        return False
    return 0.0 <= lower <= upper <= 1.0 and 0.0 <= estimate <= 1.0


# --------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------- #


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (the checkout is not a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def provenance(root: Path, **extra) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "platform": platform.platform(),
        **extra,
    }

"""Workload ``sweep-fig4``: the paper's Fig. 4 loss surface through ``repro.exec``.

``fig04_loss_surface_mtv`` on its default 6x6 MTV grid runs on a serial
engine (the CLI default, ``--jobs 1``) and on a ``ProcessPoolBackend``
with two workers, each pass with a fresh ``SolveCache`` directory so every
cell is a solve plus a cache write.  The work is all kernel and engine,
with no transport: a kernel gain moves both walls, a dispatch gain only
the pool wall.  The grid is fixed by the figure, so the seed changes
nothing here; it is recorded.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import OUT_DIR, HostGauge, Tracer, loss_answer_ok

JOBS = 2


def prepare(root: Path) -> None:
    """Set-up as a fresh process pays it: imports, the MTV source, a warm pool."""
    from repro.exec import ProcessPoolBackend, SolveCache
    from repro.experiments.figures import mtv_source

    mtv_source()
    (root / OUT_DIR).mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="fig4-", dir=root / OUT_DIR))
    try:
        SolveCache(workdir / "cache")
        with ProcessPoolBackend(jobs=JOBS) as backend:
            backend.warm()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@dataclass
class Pass:
    jobs: int
    wall: float
    losses: np.ndarray
    cells: list[tuple[int, str]]
    cache_dir: Path
    telemetry: object
    backend: object = None


def run_pass(root: Path, jobs: int, tracer: Tracer) -> Pass:
    from repro.exec import ProcessPoolBackend, SerialBackend, SolveCache, SweepEngine
    from repro.experiments.figures import fig04_loss_surface_mtv

    from timed import TimedBackend, TimedCache, TimedEngine

    cache_dir = Path(tempfile.mkdtemp(prefix="fig4-", dir=root / OUT_DIR)) / "cache"
    backend = SerialBackend() if jobs == 1 else ProcessPoolBackend(jobs=jobs)
    if jobs > 1:
        backend.warm()  # worker start-up belongs to set-up, not to the grid
    cells: list[tuple[int, str]] = []

    def progress(done, total, cell) -> None:
        cells.append((cell.index, cell.key))

    if tracer.enabled:
        backend = TimedBackend(backend, tracer)
        engine = TimedEngine(tracer, backend=backend, cache=TimedCache(cache_dir, tracer),
                             progress=progress)
    else:
        engine = SweepEngine(backend=backend, cache=SolveCache(cache_dir), progress=progress)
    try:
        with tracer.span(f"fig4.pass.jobs{jobs}"):
            start = time.perf_counter()
            surface = fig04_loss_surface_mtv(engine=engine)
            wall = time.perf_counter() - start
    finally:
        engine.close()
    return Pass(jobs, wall, surface.losses, cells, cache_dir, engine.telemetry,
                backend if tracer.enabled else None)


def check_pass(p: Pass, reference: np.ndarray | None) -> list[str]:
    """Problems with one pass: every cell re-read from disk obeys Prop. II.1
    and matches the grid; the grid equals the reference grid exactly."""
    from repro.exec import SolveCache

    problems: list[str] = []
    stored = SolveCache(p.cache_dir).get_many([key for _, key in p.cells])
    flat = p.losses.ravel()
    if sorted(index for index, _ in p.cells) != list(range(flat.size)):
        problems.append(f"jobs={p.jobs}: {len(p.cells)} cells reported, grid has {flat.size}")
    for (index, key), result in zip(p.cells, stored):
        if result is None or not loss_answer_ok(result):
            problems.append(f"jobs={p.jobs}: cell {index} violates Prop. II.1: {result}")
        elif index < flat.size and result.estimate != flat[index]:
            problems.append(f"jobs={p.jobs}: cell {index} differs from the grid")
    if reference is not None and not np.array_equal(p.losses, reference):
        problems.append(f"jobs={p.jobs}: grid differs from the serial grid")
    return problems


def pass_layers(p: Pass, tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its spans and telemetry."""
    t = p.telemetry
    backend_s = tracer.total("backend.run_batches")
    busy = p.backend.busy_s
    return {
        "cache.get_many_ms": tracer.total("cache.get_many") * 1e3,
        "cache.put_many_ms": tracer.total("cache.put_many") * 1e3,
        "backend.run_batches_s": backend_s,
        "backend.busy_s": busy,
        "backend.idle_frac": 1.0 - busy / (p.wall * p.jobs),
        # run_tasks minus its child spans: the cache calls and the backend
        "engine.self_s": tracer.self_seconds("engine.run_tasks"),
        "exec.batched_tasks": float(t.batched_tasks),
        "exec.fallback_solo": float(t.fallback_solo),
        "planner.batches": float(p.backend.batches),
        "core.iterations": float(t.solver_iterations),
        "core.fft_transforms": float(t.fft_transforms),
        "core.fft_s": t.fft_seconds,
        "core.boundary_s": t.boundary_seconds,
    }


class Run:
    """Serial/pool pass pairs; each traced pass records into its own tracer."""

    def __init__(self, root: Path, run_id: str) -> None:
        self.root = root
        self.run_id = run_id
        self.tracers: list[Tracer] = []
        self.problems: list[str] = []
        self.cells = 0
        self.layers: dict[str, float] = {}
        self.gauge: HostGauge | None = None
        (root / OUT_DIR).mkdir(parents=True, exist_ok=True)

    def _pair(self, traced: bool) -> tuple[float, float]:
        """One serial pass and one pool pass, each followed by a gauge sample
        of its own parallelism, checked; caches removed after."""
        passes = []
        for jobs, sample in ((1, self.gauge.sample_single), (JOBS, self.gauge.sample_worker)):
            tracer = Tracer(traced, self.run_id)
            passes.append((run_pass(self.root, jobs, tracer), tracer))
            sample()
        (serial, serial_tracer), (pool, pool_tracer) = passes
        self.problems += check_pass(serial, None)
        self.problems += check_pass(pool, serial.losses)
        self.cells += serial.losses.size + pool.losses.size
        for p, _ in passes:
            shutil.rmtree(p.cache_dir.parent, ignore_errors=True)
        if traced:
            self.tracers += [serial_tracer, pool_tracer]
            # Engine and backend figures are the pool pass's; the kernel's
            # come from the serial pass, where no other process competes.
            self.layers = pass_layers(pool, pool_tracer)
            serial_layers = pass_layers(serial, serial_tracer)
            for name in ("core.fft_s", "core.boundary_s"):
                self.layers[name] = serial_layers[name]
        return serial.wall, pool.wall

    def measure(self, budget: float, modes: tuple[bool, ...] = (False,)) -> dict:
        """Pairs, once per tracing mode in ``modes``, until ``budget`` seconds
        have passed; per mode, the host-scaled mean serial and pool walls
        (see :class:`HostGauge`).  Modes alternate so both see the same host.
        The serial pass runs in this process and is scaled by the ``single``
        gauge.  The pool pass is scaled by the ``worker`` gauge: the planner
        puts the grid's slow cells in one of its two batches (0.2 s against
        6 s on the reference host), so the pass is one worker busy while
        this process waits."""
        walls = {mode: ([], []) for mode in modes}
        self.gauge = HostGauge()
        try:
            self.gauge.sample_single()
            self.gauge.sample_worker()
            start = time.perf_counter()
            while not walls[modes[0]][0] or time.perf_counter() - start < budget:
                for mode in modes:
                    serial, pool = self._pair(mode)
                    walls[mode][0].append(serial)
                    walls[mode][1].append(pool)
        finally:
            self.gauge.close()
        self.walls = dict(zip(("serial", "pool"), walls[modes[0]]))
        self.scales = (HostGauge.scale(self.gauge.single), HostGauge.scale(self.gauge.worker))
        return {mode: (float(np.mean(w[0])) * self.scales[0],
                       float(np.mean(w[1])) * self.scales[1])
                for mode, w in walls.items()}

"""Workload ``netsim``: a fan-in and a deep topology through ``repro.netsim``.

``multiplexer_topology(utilization=0.9, normalized_buffer=0.1, sources=16)``
and ``tandem_topology(..., hops=8)``, each fed by the paper's heavy-tailed
on/off sources and simulated with the run's seed.  Fan-in (many flows into
one queue) and depth (one flow through eight queues) load the event loop
differently, so a change that helps one and costs the other shows.  Speed
is simulated seconds per wall second, not events per second, so that
coalescing events cannot pass for a speed-up.  The tandem runs a much
longer horizon because each of its events is cheaper.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from pathlib import Path

import numpy as np

from common import Tracer

MUX_HORIZON_S = 120.0
TANDEM_HORIZON_S = 1500.0
PROFILE_SHARE = 0.25
"""Share of each horizon simulated under ``cProfile`` in the traced run."""
WALL_KEYS = ("wall_seconds", "events_per_second")
"""Summary entries that are clock readings, left out of the determinism check."""


def topologies() -> dict:
    from repro.netsim import multiplexer_topology, tandem_topology

    return {
        "mux": (multiplexer_topology(utilization=0.9, normalized_buffer=0.1, sources=16),
                MUX_HORIZON_S),
        "tandem": (tandem_topology(utilization=0.9, normalized_buffer=0.1, hops=8),
                   TANDEM_HORIZON_S),
    }


def prepare(root: Path) -> None:
    """Set-up as a fresh process pays it: imports and both topologies."""
    topologies()


def deterministic(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k not in WALL_KEYS}


def check_result(name: str, result) -> list[str]:
    problems = []
    for node, stats in result.node_stats.items():
        if not (np.isfinite(stats.loss_rate) and 0.0 <= stats.loss_rate <= 1.0):
            problems.append(f"{name}: node {node} loss rate {stats.loss_rate}")
    if result.events_processed <= 0:
        problems.append(f"{name}: no events processed")
    return problems


class Run:
    def __init__(self, seed: int, run_id: str) -> None:
        self.seed = seed
        self.run_id = run_id
        self.topologies = topologies()
        self.reference: dict[str, dict] = {}
        self.events: dict[str, int] = {}
        self.problems: list[str] = []
        self.simulations = 0
        self.tracers: list[Tracer] = []

    def simulate(self, name: str, tracer: Tracer) -> float:
        """One seeded simulation; returns its wall seconds and checks its result."""
        from repro.netsim import simulate

        topology, horizon = self.topologies[name]
        with tracer.span("netsim.simulate", topology=name):
            start = time.perf_counter()
            result = simulate(topology, horizon, seed=self.seed)
            wall = time.perf_counter() - start
        self.simulations += 1
        self.problems += check_result(name, result)
        summary = deterministic(result.summary())
        if name not in self.reference:
            self.reference[name] = summary
            self.events[name] = result.events_processed
        elif summary != self.reference[name]:
            self.problems.append(f"{name}: same seed gave a different summary")
        return wall

    def measure(self, budget: float, modes: tuple[bool, ...] = (False,)) -> dict:
        """Alternate mux and tandem, once per tracing mode in ``modes``, until
        ``budget`` passes; per mode, the median wall ms per simulated second
        of each topology.  Modes alternate within the loop so both see the
        same host.
        """
        tracers = {mode: Tracer(mode, self.run_id) for mode in modes}
        walls = {mode: {"mux": [], "tandem": []} for mode in modes}
        start = time.perf_counter()
        while len(walls[modes[0]]["mux"]) < 2 or time.perf_counter() - start < budget:
            for mode in modes:
                for name in ("mux", "tandem"):
                    walls[mode][name].append(self.simulate(name, tracers[mode]))
        self.tracers += [t for t in tracers.values() if t.enabled]
        self.walls = walls[modes[0]]
        return {
            mode: tuple(float(np.median(w[name])) * 1e3 / self.topologies[name][1]
                        for name in ("mux", "tandem"))
            for mode, w in walls.items()
        }

    def layers(self) -> dict[str, float]:
        """Per-layer figures: exact event counts, source path cost, profile shares."""
        out: dict[str, float] = {}
        tracer = Tracer(True, self.run_id)
        self.tracers.append(tracer)
        for name in ("mux", "tandem"):
            out[f"netsim.events.{name}"] = float(self.events[name])
            out[f"traffic.path_s.{name}"] = self._path_seconds(name, tracer)
            out.update(self._profile(name))
        return out

    def _path_seconds(self, name: str, tracer: Tracer) -> float:
        """Generate each flow's rate path over the horizon through the source API."""
        topology, horizon = self.topologies[name]
        with tracer.span("traffic.path", topology=name) as span:
            for fid, flow in enumerate(topology.flows):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=self.seed, spawn_key=(fid,))
                )
                covered = 0.0
                for duration, _rate in flow.source.segments(rng):
                    covered += duration
                    if covered >= horizon:
                        break
        return span.seconds

    def _profile(self, name: str) -> dict[str, float]:
        """Call counts (exact) and self-time shares (profiler-inflated) of the loop."""
        from repro.netsim import simulate

        topology, horizon = self.topologies[name]
        profiler = cProfile.Profile()
        profiler.enable()
        simulate(topology, horizon * PROFILE_SHARE, seed=self.seed)
        profiler.disable()
        stats = pstats.Stats(profiler).stats
        total = sum(entry[2] for entry in stats.values())
        # (counted calls, extra functions whose self time joins the share)
        groups = {
            "heap_ops": (lambda f, fn: fn in ("schedule", "pop") and f.endswith("events.py"),
                         lambda f, fn: "_heapq.heap" in fn),
            "advance_calls": (lambda f, fn: fn == "advance" and "repro/netsim" in f, None),
            "recompute_calls": (lambda f, fn: fn == "recompute" and "repro/netsim" in f, None),
        }
        out: dict[str, float] = {}
        for group, (match, extra) in groups.items():
            calls = sum(e[1] for (f, _, fn), e in stats.items() if match(f, fn))
            self_s = sum(e[2] for (f, _, fn), e in stats.items()
                         if match(f, fn) or (extra is not None and extra(f, fn)))
            out[f"netsim.{group}.{name}"] = float(calls)
            out[f"netsim.{group}_share.{name}"] = self_s / total if total else 0.0
        return out

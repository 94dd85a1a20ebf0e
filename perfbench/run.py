"""The repository benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-http --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it measures the workload's own
legs untraced and traced (half the seconds each) to give the tracing
overhead, then runs the traced section of every workload, because the
result must carry every per-layer metric.  The last line of standard
output is the JSON result; the line before it carries the run's
provenance.  Spans and a full result record are written under
``.perfbench/``.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("serve-http", "sweep-fig4", "netsim")
"""Every workload ``--workload`` accepts.  ``BENCHMARK.json`` gates the first
two; ``netsim`` stays runnable by hand and in every traced run, but its
wall times drifted too much between runs on the shared reference host for
a bound (see README.md)."""
SETUP_PROBES = 3
"""Cold set-ups per run; ``setup_s`` is their median."""

ROOT = Path.cwd()

END_TO_END = {"setup_s": "s", "ok_ratio": "ratio", "leg1_ms": "ms", "leg2_ms": "ms"}
PER_LAYER = {
    # client and repro.serve (serve-http section)
    "client.lag_p99_ms": "ms",
    "protocol.parse_us": "us",
    "protocol.key_us": "us",
    "lru.get_us": "us",
    "service.hot_query_p50_us": "us",
    "transport.hot_share": "ratio",
    "lru.hit_ratio.hot": "ratio",
    "lru.hit_ratio.capacity": "ratio",
    "lru.hit_ratio.miss": "ratio",
    "lru.hit_ratio.disk": "ratio",
    "batcher.wait_p50_ms": "ms",
    "batcher.mean_batch": "count",
    "engine.run_tasks_p50_ms": "ms",
    "cache.disk_hit_ratio": "ratio",
    "singleflight.leaders": "count",
    "singleflight.joins": "count",
    "serve.shed": "count",
    "serve.timeouts": "count",
    "serve.errors": "count",
    "serve.hot_p99_ms": "ms",
    "serve.hot_capacity_rps": "1/s",
    "serve.miss_p50_ms": "ms",
    "serve.miss_p90_ms": "ms",
    "serve.disk_p90_ms": "ms",
    # repro.exec and repro.core (sweep-fig4 section)
    "cache.get_many_ms": "ms",
    "cache.put_many_ms": "ms",
    "backend.run_batches_s": "s",
    "backend.busy_s": "s",
    "backend.idle_frac": "ratio",
    "engine.self_s": "s",
    "exec.batched_tasks": "count",
    "exec.fallback_solo": "count",
    "planner.batches": "count",
    "core.iterations": "count",
    "core.fft_transforms": "count",
    "core.fft_s": "s",
    "core.boundary_s": "s",
    # repro.netsim and repro.traffic (netsim section)
    **{f"{name}.{topology}": unit
       for topology in ("mux", "tandem")
       for name, unit in (
           ("netsim.events", "count"),
           ("traffic.path_s", "s"),
           ("netsim.heap_ops", "count"),
           ("netsim.heap_ops_share", "ratio"),
           ("netsim.advance_calls", "count"),
           ("netsim.advance_calls_share", "ratio"),
           ("netsim.recompute_calls", "count"),
           ("netsim.recompute_calls_share", "ratio"),
       )},
    "netsim.mux_sim_s_per_s": "1/s",
    "netsim.tandem_sim_s_per_s": "1/s",
    # the traced run's own workload: traced / untraced - 1 per leg
    "trace.overhead_share.leg1": "ratio",
    "trace.overhead_share.leg2": "ratio",
}


def _probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to the workload being set up."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("probe.py")), workload],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


class Outcome:
    """Counts and figures one run accumulates across its sections."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.legs: dict[str, float] = {}
        self.info: dict[str, object] = {}
        self.layers: dict[str, float] = {}
        self.traced_legs: tuple[float, float] = (0.0, 0.0)
        self.tracers: list = []

    def add_problems(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self.wrong += len(problems)
        self.problems += problems[:20]


# --------------------------------------------------------------------- #
# sections: each measures one workload untraced and/or traced
# --------------------------------------------------------------------- #


def serve_section(out: Outcome, seed: int, seconds: float, untraced: bool,
                  traced: bool, run_id: str) -> None:
    import serve_http
    from common import HostGauge, Tracer

    tracer = Tracer(False, run_id)
    run = serve_http.Run(ROOT, seed, seconds, tracer)
    tags = ([""] if untraced else []) + (["traced."] if traced else [])
    try:
        run.setup()
        run.measure(tags)
    finally:
        run.close()
    # The hot p50 is host-scaled (client and server are two processes: the
    # paired gauge); the disk p50 is mostly the batcher's fixed window.
    scale = HostGauge.scale(run.gauge.paired)
    out.info["serve_gauge_paired_us"] = run.gauge.paired
    if untraced:
        legs = run.legs("")
        out.legs.update(leg1=legs["hot_p50_ms"] * scale, leg2=legs["disk_p50_ms"])
        out.info["serve"] = legs
        out.info["serve_samples"] = run.samples("")
        out.info["setups_s"] = run.setups
    if traced:
        legs = run.legs("traced.")
        out.info["serve_traced"] = legs
        out.layers.update(run.layer_stats("traced."))
        out.layers["client.lag_p99_ms"] = run.lag_p99_ms()
        for name in ("hot_p99_ms", "hot_capacity_rps", "miss_p50_ms", "miss_p90_ms",
                     "disk_p90_ms"):
            out.layers[f"serve.{name}"] = legs[name]
        tracer.enabled = True
        out.layers.update(serve_http.inprocess_layers(
            ROOT, run.inputs, tracer, run.ledger, legs["hot_p50_ms"], seconds / 8
        ))
        out.traced_legs = (legs["hot_p50_ms"] * scale, legs["disk_p50_ms"])
    out.info["client_lag_p99_ms"] = run.lag_p99_ms()
    out.info["server_stops_hung"] = run.server.hung
    out.attempted += run.ledger.attempted
    out.failed += run.ledger.failed
    out.wrong += run.ledger.wrong
    out.problems += run.ledger.notes
    out.tracers.append(tracer)


def fig4_section(out: Outcome, seed: int, seconds: float, untraced: bool,
                 traced: bool, run_id: str) -> None:
    import sweep_fig4

    run = sweep_fig4.Run(ROOT, run_id)
    walls = run.measure(seconds, _modes(untraced, traced))
    if untraced:
        serial, pool = walls[False]
        out.legs.update(leg1=serial * 1e3, leg2=pool * 1e3)
        out.info["sweep"] = {
            "serial_wall_s": serial, "pool_wall_s": pool,  # host-scaled
            "raw_walls": run.walls, "scales": run.scales,
            "gauge_single_us": run.gauge.single, "gauge_worker_us": run.gauge.worker,
        }
    if traced:
        out.traced_legs = tuple(wall * 1e3 for wall in walls[True])
        out.layers.update(run.layers)
    out.add_problems(run.cells, run.problems)
    out.tracers += run.tracers


def netsim_section(out: Outcome, seed: int, seconds: float, untraced: bool,
                   traced: bool, run_id: str) -> None:
    import netsim_run

    run = netsim_run.Run(seed, run_id)
    legs = run.measure(seconds, _modes(untraced, traced))
    if untraced:
        mux, tandem = legs[False]
        out.legs.update(leg1=mux, leg2=tandem)
        out.info["netsim"] = {"mux_sim_s_per_s": 1e3 / mux, "tandem_sim_s_per_s": 1e3 / tandem,
                              "events": dict(run.events), "walls": run.walls}
    if traced:
        out.traced_legs = legs[True]
        out.layers.update(run.layers())
        out.layers["netsim.mux_sim_s_per_s"] = 1e3 / legs[True][0]
        out.layers["netsim.tandem_sim_s_per_s"] = 1e3 / legs[True][1]
    out.add_problems(run.simulations, run.problems)
    out.tracers += run.tracers


def _modes(untraced: bool, traced: bool) -> tuple[bool, ...]:
    return tuple(mode for mode, wanted in ((False, untraced), (True, traced)) if wanted)


SECTIONS = {"serve-http": serve_section, "sweep-fig4": fig4_section, "netsim": netsim_section}


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'repro'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import common

    run_id = f"{args.workload}-{args.seed}-{args.trace}-{int(time.time() * 1e3)}"
    out = Outcome()
    started = time.perf_counter()
    if args.trace == 0:
        if args.workload == "serve-http":
            SECTIONS[args.workload](out, args.seed, args.seconds, True, False, run_id)
            setups = out.info["setups_s"]
        else:
            setups = [_probe_setup(args.workload) for _ in range(SETUP_PROBES)]
            SECTIONS[args.workload](out, args.seed, args.seconds, True, False, run_id)
        values = {
            "setup_s": statistics.median(setups),
            "ok_ratio": 1.0 - out.failed / max(1, out.attempted),
            "leg1_ms": out.legs["leg1"],
            "leg2_ms": out.legs["leg2"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        out.info["setups_s"] = setups
    else:
        # The workload's own section runs untraced and traced for the
        # overhead; every other section runs traced over half the seconds.
        for name, section in SECTIONS.items():
            own = name == args.workload
            section(out, args.seed, args.seconds if own else args.seconds / 2,
                    own, True, run_id)
            if own:
                untraced_legs = (out.legs["leg1"], out.legs["leg2"])
                traced_legs = out.traced_legs
        for i, key in enumerate(("leg1", "leg2")):
            out.layers[f"trace.overhead_share.{key}"] = traced_legs[i] / untraced_legs[i] - 1.0
        if set(out.layers) != set(PER_LAYER):
            raise RuntimeError(f"per-layer metrics differ from the list: "
                               f"{sorted(set(out.layers) ^ set(PER_LAYER))}")
        metrics = {name: (out.layers[name], unit) for name, unit in PER_LAYER.items()}

    record = {
        "workload": args.workload,
        "provenance": common.provenance(
            ROOT, seed=args.seed, seconds=args.seconds, trace=args.trace, run_id=run_id,
            client_lag_p99_ms=out.info.get("client_lag_p99_ms"),
            wall_s=time.perf_counter() - started,
        ),
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "info": out.info,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems,
    }
    results = ROOT / common.OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=2, default=str))
    if args.trace:
        spans = common.Tracer(True, run_id)
        for tracer in out.tracers:
            spans.spans += tracer.spans
        spans.write(ROOT / common.OUT_DIR / "traces" / f"{run_id}.jsonl")
    for problem in out.problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    print(json.dumps({"provenance": record["provenance"], "info": out.info}, default=str))
    print(json.dumps({
        "correct": out.wrong == 0,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

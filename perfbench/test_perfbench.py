"""The benchmark's own checks must fire on wrong answers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import common  # noqa: E402
import netsim_run  # noqa: E402
import run  # noqa: E402
import serve_http  # noqa: E402
import sweep_fig4  # noqa: E402

GOOD = {"estimate": 0.1, "lower": 0.09, "upper": 0.11, "iterations": 96, "bins": 128,
        "converged": True, "negligible": False}


@pytest.mark.parametrize("change", [
    {"lower": 0.2, "upper": 0.1},          # lower > upper
    {"upper": 1.5},                         # above 1
    {"lower": -0.01},                       # below 0
    {"upper": math.nan},                    # not finite
    {"estimate": math.inf},
    {"lower": "0.1"},                       # not a number
])
def test_prop_ii1_check_rejects_bad_answers(change):
    assert common.loss_answer_ok(GOOD)
    assert not common.loss_answer_ok({**GOOD, **change})


def test_negligible_answer_with_zero_estimate_is_accepted():
    assert common.loss_answer_ok({**GOOD, "estimate": 0.0, "lower": 1e-12, "upper": 1e-10})


def test_injected_wrong_served_answer_counts_as_failed():
    ledger = serve_http.Ledger()
    body = {"kind": "loss", "buffer": 0.6}
    wrong = (200, {"ok": True, "result": {**GOOD, "lower": 0.3, "upper": 0.2}})
    assert serve_http.check_answer(body, wrong, None, ledger) is None
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (1, 1, 1)

    # A well-formed answer that differs from its reference is wrong too.
    other = (200, {"ok": True, "result": {**GOOD, "estimate": 0.1000001}})
    assert serve_http.check_answer(body, other, GOOD, ledger) is None
    assert ledger.wrong == 2

    # A refusal is a failure but not a wrong answer.
    assert serve_http.check_answer(body, (429, {"ok": False}), None, ledger) is None
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (3, 3, 2)

    assert serve_http.check_answer(body, (200, {"ok": True, "result": GOOD}), None, ledger)
    assert ledger.failed == 3


def test_in_process_comparison_is_bit_for_bit():
    from repro.serve.protocol import parse_request, result_payload

    body = {"kind": "loss", "buffer": 0.6}
    exact = json.loads(json.dumps(result_payload(parse_request(body).task().run())))
    ledger = serve_http.Ledger()
    serve_http.verify_in_process([body], [exact], ledger)
    assert ledger.wrong == 0
    nudged = {**exact, "upper": np.nextafter(exact["upper"], 1.0)}
    serve_http.verify_in_process([body], [nudged], ledger)
    assert (ledger.attempted, ledger.wrong) == (2, 1)


def test_sweep_check_fires_on_grid_mismatch_and_missing_cells(tmp_path):
    from repro.exec import SolveCache, SolveTask
    from repro.serve.protocol import QueryRequest

    tasks = [QueryRequest(kind="loss", buffer=b).task() for b in (0.4, 0.6)]
    assert all(isinstance(t, SolveTask) for t in tasks)
    results = [t.run() for t in tasks]
    cache = SolveCache(tmp_path)
    cache.put_many((t.cache_key(), r) for t, r in zip(tasks, results))
    grid = np.array([[r.estimate for r in results]])
    good = sweep_fig4.Pass(2, 1.0, grid, [(i, t.cache_key()) for i, t in enumerate(tasks)],
                           tmp_path, None)
    assert sweep_fig4.check_pass(good, grid.copy()) == []

    shifted = grid.copy()
    shifted[0, 1] = np.nextafter(shifted[0, 1], 1.0)
    assert any("differs from the serial grid" in p for p in sweep_fig4.check_pass(good, shifted))

    missing = sweep_fig4.Pass(2, 1.0, grid, [(0, tasks[0].cache_key()), (1, "0" * 64)],
                              tmp_path, None)
    assert any("violates Prop. II.1" in p for p in sweep_fig4.check_pass(missing, None))


def test_netsim_checks_fire_on_bad_loss_and_nondeterminism():
    run_ = netsim_run.Run(seed=3, run_id="test")
    run_.topologies = {
        "mux": (run_.topologies["mux"][0], 2.0),
        "tandem": (run_.topologies["tandem"][0], 20.0),
    }
    run_.simulate("mux", common.Tracer(False))
    run_.simulate("mux", common.Tracer(False))
    assert run_.problems == []
    run_.reference["mux"] = {**run_.reference["mux"], "queue.loss_rate": -1.0}
    run_.simulate("mux", common.Tracer(False))
    assert run_.problems == ["mux: same seed gave a different summary"]

    class Stats:
        loss_rate = math.nan

    class Result:
        node_stats = {"queue": Stats()}
        events_processed = 10

    assert netsim_run.check_result("mux", Result()) == ["mux: node queue loss rate nan"]


def test_stopping_a_server_ends_its_whole_process_group():
    # A parent that ignores SIGINT (as a server that missed it) with a forked
    # worker: both must end, though only the parent is our child.
    code = ("import os, signal, time\n"
            "signal.signal(signal.SIGINT, signal.SIG_IGN)\n"
            "os.fork()\n"
            "time.sleep(60)\n")
    proc = subprocess.Popen([sys.executable, "-c", code], start_new_session=True)
    deadline = time.monotonic() + 10
    while len(serve_http._live_members(proc.pid)) < 2 and time.monotonic() < deadline:
        time.sleep(0.05)
    assert len(serve_http._live_members(proc.pid)) == 2
    serve_http._kill_group(proc)
    assert serve_http._live_members(proc.pid) == []
    assert proc.returncode is not None


def test_host_gauge_scales_to_the_reference_step_without_the_program():
    assert common.HostGauge.scale([common.REFERENCE_STEP_US * 2] * 3) == pytest.approx(0.5)
    # The reference step must not run program code, or a program change
    # would move the gauge along with the work it scales.
    code = ("import sys; sys.path.insert(0, 'perfbench'); import common; "
            "assert common.reference_step_us(0.01) > 0; "
            "assert not any(m == 'repro' or m.startswith('repro.') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def test_tracer_self_time_subtracts_children():
    tracer = common.Tracer(True)
    with tracer.span("parent") as parent:
        tracer.add("child", parent.start, parent.start)  # zero-length
    parent.start, parent.end = 0.0, 10.0
    tracer.spans[1].start, tracer.spans[1].end = 2.0, 5.0
    tracer.add("orphan", 20.0, 30.0)
    assert tracer.self_seconds("parent") == pytest.approx(7.0)
    assert tracer.spans[1].parent == parent.span_id


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["serve-http", "sweep-fig4"]
    assert set(run.WORKLOADS) >= {"serve-http", "sweep-fig4", "netsim"}
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])

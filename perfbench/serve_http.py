"""Workload ``serve-http``: the real ``repro serve`` process driven over HTTP.

The server is the CLI, ``python -m repro serve --port 0 --jobs 2
--cache-dir <fresh dir>``, run as a subprocess.  One asyncio generator in
this process drives it over two keep-alive connections (no more than the
reference host's two CPUs), and every latency is timed from the request's
*due* time, so a stall also charges the requests queued behind it.

Phases, in order:

* **hot** - open-loop Poisson at ``HOT_RATE``: 85% ``loss`` over a
  32-key working set pre-warmed during set-up (memory-LRU hits), 15%
  ``horizon`` (closed form).  Transport dominates here.
* **capacity** - the same mix in a closed loop on the two connections.
* **miss** - open-loop Poisson at ``MISS_RATE``; every ``loss`` is a fresh
  key, so each goes through singleflight, the micro-batcher, the engine,
  the solver and an LRU insert.  Buffers come from a fixed range so the
  cost per request does not drift during the run.
* **disk** - the server is restarted on the same cache directory and the
  miss keys are replayed on the miss schedule: each is a memory miss and
  a disk-cache hit.

Arrivals are Poisson, not long-range dependent, on purpose: LRD
schedules make tail latency depend on the seed by design.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import OUT_DIR, HostGauge, Tracer, beyond, loss_answer_ok, percentile

CONNECTIONS = 2
HOT_RATE = 300.0
MISS_RATE = 30.0
HOT_KEYS = 32
HORIZON_KEYS = 8
HORIZON_SHARE = 0.15
BUFFER_RANGE = (0.36, 0.44)
"""Normalized buffers of ``loss`` queries: every solve has one shape (128 bins,
64 iterations, ~4.4 ms on the reference host), so the cost of a miss does not
depend on which keys a seed draws, and the engine stays far from saturation
at ``MISS_RATE`` even when the shared host runs slow."""
VERIFY_SAMPLE = 6
"""Served answers per phase re-solved in-process and compared bit for bit."""
PHASE_SHARE = {"hot": 0.45, "capacity": 0.1, "miss": 0.2}
"""Shares of a pass's seconds; the disk replay repeats the miss schedule.
Hot gets the most because its p50 is a gated leg that tracks the host's
speed: the longer it runs, the more of the host's slow swings it averages."""
ROUNDS = 3
COUNTERS = (
    "memory_lru/hits", "memory_lru/misses", "cache/hits", "cache/misses",
    "queue/batches", "queue/items_dispatched", "queue/shed",
    "singleflight/leaders", "singleflight/hits", "timeouts", "errors",
)
"""``/stats`` counters whose deltas are summed per phase."""
SERVER_STARTS = 3
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 3.0
"""How long a stopped server may drain after SIGINT before its process group
is killed.  A drain between phases takes ~0.2 s; a server that is still up
after this is stuck, and its pool workers would outlive a killed parent
unless the group goes with it.  Cache writes are appended and closed before
each answer, so a killed server loses none of them."""


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #


def _loss_body(buffer: float) -> dict:
    return {"kind": "loss", "buffer": float(buffer)}


def _horizon_body(buffer: float) -> dict:
    return {"kind": "horizon", "buffer": float(buffer)}


@dataclass
class Inputs:
    hot_loss: list[dict]
    hot_horizon: list[dict]
    rng: np.random.Generator
    used_buffers: set = field(default_factory=set)

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        inputs = cls([], [], rng)
        inputs.hot_loss = [_loss_body(b) for b in inputs.fresh_buffers(HOT_KEYS)]
        inputs.hot_horizon = [
            _horizon_body(b) for b in rng.uniform(0.1, 2.0, size=HORIZON_KEYS)
        ]
        return inputs

    def fresh_buffers(self, count: int) -> list[float]:
        """Distinct buffers never handed out before in this run."""
        out: list[float] = []
        while len(out) < count:
            value = float(self.rng.uniform(*BUFFER_RANGE))
            if value not in self.used_buffers:
                self.used_buffers.add(value)
                out.append(value)
        return out

    def hot_mix(self, count: int) -> list[dict]:
        picks = self.rng.random(count) < HORIZON_SHARE
        loss_idx = self.rng.integers(0, HOT_KEYS, size=count)
        horizon_idx = self.rng.integers(0, HORIZON_KEYS, size=count)
        return [
            self.hot_horizon[h] if pick else self.hot_loss[i]
            for pick, i, h in zip(picks, loss_idx, horizon_idx)
        ]

    def poisson(self, rate: float, duration: float) -> np.ndarray:
        count = max(1, int(self.rng.poisson(rate * duration)))
        return np.sort(self.rng.uniform(0.0, duration, size=count))


def _key(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


# --------------------------------------------------------------------- #
# server process
# --------------------------------------------------------------------- #


class Server:
    """One ``repro serve`` subprocess; :meth:`start` returns seconds to healthy."""

    def __init__(self, root: Path, cache_dir: Path) -> None:
        self.root = root
        self.cache_dir = cache_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.hung = 0
        """Stops where the server had not exited ``DRAIN_TIMEOUT_S`` after SIGINT."""

    def start(self) -> float:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "2",
             "--cache-dir", str(self.cache_dir)],
            cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,  # its own process group, pool workers included
            preexec_fn=_default_sigint,
        )
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            if "listening on http://" in line:
                self.port = int(line.split("listening on http://", 1)[1].split()[0]
                                .rsplit(":", 1)[1])
                break
            if time.perf_counter() - started > START_TIMEOUT_S:
                break
        if not self.port:
            self.stop()
            raise RuntimeError("repro serve did not report a listening port")
        asyncio.run(_wait_healthy(self.port, started + START_TIMEOUT_S))
        return time.perf_counter() - started

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)  # the CLI drains on Ctrl-C
            try:
                proc.wait(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.hung += 1
        _kill_group(proc)
        if proc.stderr is not None:
            proc.stderr.close()


def _default_sigint() -> None:
    """Give the server the default SIGINT disposition, so Python turns Ctrl-C
    into the CLI's drain.  A shell starts background jobs with SIGINT
    ignored, the ignore survives exec, and Python then keeps ignoring it."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _live_members(pgid: int) -> list[int]:
    """Processes of group ``pgid`` that have not ended (zombies excluded)."""
    alive = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            alive.append(int(entry.name))
    return alive


def _kill_group(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """SIGKILL what is left of the server's process group and wait until all
    of it has ended: the server itself (reaped here) and its pool workers,
    which are not our children and outlive a killed server otherwise."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        proc.poll()
        if not _live_members(proc.pid):
            break
        if time.monotonic() > deadline:
            raise RuntimeError(f"server process group {proc.pid} outlived SIGKILL")
        time.sleep(0.05)
    proc.wait(timeout=timeout)


# --------------------------------------------------------------------- #
# HTTP client
# --------------------------------------------------------------------- #


class Connection:
    """One keep-alive HTTP/1.1 connection, framed by Content-Length."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def call(self, method: str, path: str, body: bytes = b"") -> tuple[int, dict]:
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        if body:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        self.writer.write(head.encode("latin-1") + b"\r\n" + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = json.loads(await self.reader.readexactly(length)) if length else {}
        return status, payload

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _wait_healthy(port: int, deadline: float) -> None:
    while True:
        try:
            conn = await Connection.open(port)
            try:
                status, payload = await conn.call("GET", "/healthz")
            finally:
                await conn.close()
            if status == 200 and payload.get("status") == "ok":
                return
        except (ConnectionError, OSError):
            pass
        if time.perf_counter() > deadline:
            raise RuntimeError("repro serve never became healthy")
        await asyncio.sleep(0.02)


async def _stats(port: int) -> dict:
    conn = await Connection.open(port)
    try:
        return (await conn.call("GET", "/stats"))[1]
    finally:
        await conn.close()


@dataclass
class Phase:
    """What one phase sent and got back."""

    name: str
    bodies: list[dict]
    latencies: list[float] = field(default_factory=list)
    answers: list[tuple[int, dict] | None] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    elapsed: float = 0.0


async def _open_loop(port: int, phase: Phase, offsets: np.ndarray,
                     tracer: Tracer) -> None:
    """Send ``phase.bodies[i]`` when due; two connections take them in order."""
    encoded = [json.dumps(b).encode() for b in phase.bodies]
    phase.answers = [None] * len(encoded)
    phase.latencies = [0.0] * len(encoded)
    queue: asyncio.Queue = asyncio.Queue()
    conns = [await Connection.open(port) for _ in range(CONNECTIONS)]

    async def worker(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            try:
                answer = await conn.call("POST", "/v1/query", encoded[index])
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
                answer = None
            done = time.perf_counter()
            phase.answers[index] = answer
            phase.latencies[index] = done - due
            tracer.add("client.request", due, done, phase=phase.name,
                       status=answer[0] if answer else 0)

    with tracer.span(f"phase.{phase.name}"):
        workers = [asyncio.ensure_future(worker(c)) for c in conns]
        start = time.perf_counter() + 0.01
        for index, offset in enumerate(offsets):
            due = start + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lags.append(max(0.0, time.perf_counter() - due))
            queue.put_nowait((index, due))
        for _ in conns:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        phase.elapsed = time.perf_counter() - start
    for conn in conns:
        await conn.close()


async def _closed_loop(port: int, phase: Phase, duration: float, tracer: Tracer) -> None:
    """Each connection sends its next request as soon as the last returns,
    cycling through ``phase.bodies``, until ``duration`` has passed."""
    encoded = [json.dumps(b).encode() for b in phase.bodies]
    conns = [await Connection.open(port) for _ in range(CONNECTIONS)]
    cursor = itertools.count()
    done_list: list[tuple[int, tuple[int, dict] | None, float]] = []
    deadline = time.perf_counter() + duration

    async def worker(conn: Connection) -> None:
        while time.perf_counter() < deadline:
            index = next(cursor) % len(encoded)
            begin = time.perf_counter()
            try:
                answer = await conn.call("POST", "/v1/query", encoded[index])
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
                answer = None
            done = time.perf_counter()
            done_list.append((index, answer, done - begin))
            tracer.add("client.request", begin, done, phase=phase.name,
                       status=answer[0] if answer else 0)

    with tracer.span(f"phase.{phase.name}"):
        start = time.perf_counter()
        await asyncio.gather(*(worker(c) for c in conns))
        phase.elapsed = time.perf_counter() - start
    for conn in conns:
        await conn.close()
    phase.bodies = [phase.bodies[i] for i, _, _ in done_list]
    phase.answers = [answer for _, answer, _ in done_list]
    phase.latencies = [latency for _, _, latency in done_list]


# --------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------- #


@dataclass
class Ledger:
    """Attempted requests and the failed or wrong answers among them."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.wrong += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def check_answer(body: dict, answer: tuple[int, dict] | None, expected: dict | None,
                 ledger: Ledger) -> dict | None:
    """Count one request; returns its result payload when it is acceptable.

    A ``loss`` result must satisfy Prop. II.1; any result with a known
    reference (pre-warmed hot keys, miss answers replayed from disk)
    must equal it exactly.
    """
    ledger.attempted += 1
    if answer is None:
        ledger.fail(f"no response to {body}")
        return None
    status, payload = answer
    if status != 200 or not payload.get("ok"):
        ledger.fail(f"status {status} for {body}: {payload.get('error')}")
        return None
    result = payload.get("result")
    if body["kind"] == "loss" and not loss_answer_ok(result):
        ledger.fail(f"Prop. II.1 violated for {body}: {result}", wrong=True)
        return None
    if body["kind"] == "horizon" and not (
        isinstance(result, dict) and all(
            isinstance(v, float) and np.isfinite(v) and v > 0 for v in result.values()
        )
    ):
        ledger.fail(f"bad horizon answer for {body}: {result}", wrong=True)
        return None
    if expected is not None and result != expected:
        ledger.fail(f"answer for {body} differs from its reference", wrong=True)
        return None
    return result


def verify_in_process(bodies: list[dict], answers: list[dict], ledger: Ledger) -> None:
    """Re-solve each body with ``SolveTask.run()``; the served answer must be identical."""
    from repro.serve.protocol import parse_request, result_payload

    for body, served in zip(bodies, answers):
        task = parse_request(body).task()
        local = json.loads(json.dumps(result_payload(task.run())))
        ledger.attempted += 1
        if local != served:
            ledger.fail(f"served {served} != in-process {local} for {body}", wrong=True)


# --------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------- #


def _pct_ms(values: list[float], level: float) -> float:
    return percentile(values, level) * 1e3


def _delta(after: dict, before: dict, *path: str) -> float:
    a, b = after, before
    for key in path:
        a, b = a[key], b[key]
    return float(a) - float(b)


class Run:
    """One serve-http run: owns the cache directory and the server process."""

    def __init__(self, root: Path, seed: int, seconds: float, tracer: Tracer) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.inputs = Inputs.from_seed(seed)
        self.ledger = Ledger()
        self.setups: list[float] = []
        self.phases: dict[str, Phase] = {}
        self.counters: dict[str, dict[str, float]] = {}
        self.miss_blocks: list[tuple[str, list[dict], np.ndarray]] = []
        self.last_stats: dict = {}
        self.wait_p50_ms = 0.0
        self.reference: dict[str, dict] = {}
        self.gauge: HostGauge | None = None
        (root / OUT_DIR).mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=root / OUT_DIR))
        self.server = Server(root, self.workdir / "cache")

    def close(self) -> None:
        self.server.stop()
        if self.gauge is not None:
            self.gauge.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def start_server(self) -> None:
        self.server.stop()
        self.setups.append(self.server.start())

    async def _prewarm(self) -> None:
        conn = await Connection.open(self.server.port)
        try:
            for body in self.inputs.hot_loss + self.inputs.hot_horizon:
                answer = await conn.call("POST", "/v1/query", json.dumps(body).encode())
                result = check_answer(body, answer, None, self.ledger)
                if result is not None:
                    self.reference[_key(body)] = result
        finally:
            await conn.close()

    def setup(self) -> None:
        self.gauge = HostGauge()  # before any server, so its workers hold no server fd
        # The first start is a probe on an empty cache: it is timed like
        # the other two, then stopped, so set-up time is a median of three.
        for _ in range(SERVER_STARTS - 1):
            self.start_server()
        asyncio.run(self._prewarm())

    def _judge(self, phase: Phase, expect_from: dict[str, dict] | None) -> None:
        for body, answer in zip(phase.bodies, phase.answers):
            expected = None if expect_from is None else expect_from.get(_key(body))
            result = check_answer(body, answer, expected, self.ledger)
            if result is not None and phase.name.endswith("miss"):
                self.reference[_key(body)] = result

    async def _block(self, name: str, bodies: list[dict], offsets: np.ndarray | None,
                     duration: float = 0.0) -> None:
        """One block of a phase: open loop on ``offsets``, or closed loop for
        ``duration``; results and ``/stats`` deltas add to the phase's totals."""
        port = self.server.port
        before = await _stats(port)
        block = Phase(name, bodies)
        if offsets is None:
            await _closed_loop(port, block, duration, self.tracer)
        else:
            await _open_loop(port, block, offsets, self.tracer)
        after = await _stats(port)
        phase = self.phases.setdefault(name, Phase(name, []))
        phase.bodies += block.bodies
        phase.answers += block.answers
        phase.latencies += block.latencies
        phase.lags += block.lags
        phase.elapsed += block.elapsed
        totals = self.counters.setdefault(name, dict.fromkeys(COUNTERS, 0.0))
        for path in COUNTERS:
            totals[path] += _delta(after, before, *path.split("/"))
        self.last_stats = after

    async def _phases(self, tags: list[str], budget: float) -> None:
        """Hot and miss blocks alternate over ``ROUNDS`` rounds, so both legs
        sample the whole pass rather than one stretch of it, and the traced
        and untraced passes (``tags``) alternate block by block; then capacity."""
        inputs = self.inputs
        self.gauge.sample_paired()
        for _ in range(ROUNDS):
            for tag in tags:
                self.tracer.enabled = tag == "traced."
                offsets = inputs.poisson(HOT_RATE, budget * PHASE_SHARE["hot"] / ROUNDS)
                await self._block(f"{tag}hot", inputs.hot_mix(len(offsets)), offsets)
                self.gauge.sample_paired()  # client and server: two processes
            for tag in tags:
                self.tracer.enabled = tag == "traced."
                offsets = inputs.poisson(MISS_RATE, budget * PHASE_SHARE["miss"] / ROUNDS)
                bodies = [_loss_body(b) for b in inputs.fresh_buffers(len(offsets))]
                self.miss_blocks.append((tag, bodies, offsets))
                await self._block(f"{tag}miss", bodies, offsets)
        duration = budget * PHASE_SHARE["capacity"]
        for tag in tags:
            self.tracer.enabled = tag == "traced."
            await self._block(f"{tag}capacity", inputs.hot_mix(1000), None, duration)
        self.tracer.enabled = False

    async def _disk(self) -> None:
        """Replay every miss block, in order, on the restarted server."""
        for tag, bodies, offsets in self.miss_blocks:
            self.tracer.enabled = tag == "traced."
            await self._block(f"{tag}disk", list(bodies), offsets)
        self.tracer.enabled = False

    def measure(self, tags: list[str]) -> None:
        """Hot/miss/capacity for each tag, restart on the same cache, then disk."""
        asyncio.run(self._phases(tags, self.seconds / len(tags)))
        self.wait_p50_ms = float(self.last_stats["latency_s"]["queue"]["p50_s"]) * 1e3
        self.start_server()
        asyncio.run(self._disk())
        self.server.stop()
        for name, phase in self.phases.items():
            self._judge(phase, None if name.endswith("miss") else self.reference)
        self._verify_sample()

    def _verify_sample(self) -> None:
        rng = np.random.default_rng(len(self.reference))
        hot = [b for b in self.inputs.hot_loss if _key(b) in self.reference]
        miss = [b for name, p in self.phases.items() if name.endswith("miss")
                for b in p.bodies if _key(b) in self.reference]
        sample = []
        for pool in (hot, miss):
            if pool:
                picks = rng.choice(len(pool), size=min(VERIFY_SAMPLE, len(pool)),
                                   replace=False)
                sample.extend(pool[i] for i in picks)
        verify_in_process(sample, [self.reference[_key(b)] for b in sample], self.ledger)

    # ------------------------------------------------------------------ #
    # figures
    # ------------------------------------------------------------------ #

    def legs(self, tag: str = "") -> dict[str, float]:
        """The workload's end-to-end figures of one pass (``tag`` '' or 'traced.')."""
        hot = self.phases[f"{tag}hot"].latencies
        miss = self.phases[f"{tag}miss"].latencies
        disk = self.phases[f"{tag}disk"].latencies
        capacity = self.phases[f"{tag}capacity"]
        return {
            "hot_p50_ms": _pct_ms(hot, 50),
            "hot_p99_ms": _pct_ms(hot, 99),
            "hot_capacity_rps": len(capacity.latencies) / capacity.elapsed,
            "miss_p50_ms": _pct_ms(miss, 50),
            "miss_p90_ms": _pct_ms(miss, 90),
            "disk_p50_ms": _pct_ms(disk, 50),
            "disk_p90_ms": _pct_ms(disk, 90),
        }

    def samples(self, tag: str = "") -> dict[str, int]:
        """Sample counts and how many lie beyond each reported percentile."""
        hot = len(self.phases[f"{tag}hot"].latencies)
        miss = len(self.phases[f"{tag}miss"].latencies)
        disk = len(self.phases[f"{tag}disk"].latencies)
        return {
            "hot": hot, "hot_beyond_p99": beyond(hot, 99),
            "miss": miss, "miss_beyond_p90": beyond(miss, 90),
            "disk": disk, "disk_beyond_p90": beyond(disk, 90),
            "capacity": len(self.phases[f"{tag}capacity"].latencies),
        }

    def lag_p99_ms(self) -> float:
        lags = [lag for p in self.phases.values() for lag in p.lags]
        return _pct_ms(lags, 99) if lags else 0.0

    def layer_stats(self, tag: str) -> dict[str, float]:
        """Per-layer figures from the ``/stats`` deltas summed over the pass's blocks."""

        def ratio(hits: float, misses: float) -> float:
            return hits / (hits + misses) if hits + misses else 0.0

        out: dict[str, float] = {}
        for name in ("hot", "capacity", "miss", "disk"):
            c = self.counters[f"{tag}{name}"]
            out[f"lru.hit_ratio.{name}"] = ratio(c["memory_lru/hits"], c["memory_lru/misses"])
        disk = self.counters[f"{tag}disk"]
        out["cache.disk_hit_ratio"] = ratio(disk["cache/hits"], disk["cache/misses"])
        miss = self.counters[f"{tag}miss"]
        out["batcher.wait_p50_ms"] = self.wait_p50_ms
        batches = miss["queue/batches"]
        out["batcher.mean_batch"] = miss["queue/items_dispatched"] / batches if batches else 0.0
        out["singleflight.leaders"] = miss["singleflight/leaders"]
        out["singleflight.joins"] = miss["singleflight/hits"]
        for key, path in (("serve.shed", "queue/shed"), ("serve.timeouts", "timeouts"),
                          ("serve.errors", "errors")):
            out[key] = sum(c[path] for n, c in self.counters.items() if n.startswith(tag))
        return out


# --------------------------------------------------------------------- #
# in-process layers (traced run only)
# --------------------------------------------------------------------- #


def _per_call_us(call, count: int, tracer: Tracer, name: str, repeats: int = 5) -> float:
    """Median over ``repeats`` timed loops of the per-call cost, in microseconds."""
    per_call = []
    for _ in range(repeats):
        with tracer.span(name, calls=count) as span:
            call()
        per_call.append(span.seconds / count * 1e6)
    return float(np.median(per_call))


def inprocess_layers(root: Path, inputs: Inputs, tracer: Tracer, ledger: Ledger,
                     http_hot_p50_ms: float, miss_seconds: float) -> dict[str, float]:
    """Serve-layer costs measured in this process through the public API.

    ``QueryService`` gets a :class:`~timed.TimedEngine` over a timed cache
    and backend, so ``engine.run_tasks`` is timed per micro-batch window.
    """
    from repro.exec import ProcessPoolBackend
    from repro.serve import QueryService
    from repro.serve.lru import MemoryLRU
    from repro.serve.protocol import parse_request

    from timed import TimedBackend, TimedCache, TimedEngine

    out: dict[str, float] = {}
    bodies = inputs.hot_mix(2000)
    out["protocol.parse_us"] = _per_call_us(
        lambda: [parse_request(b) for b in bodies], len(bodies), tracer, "protocol.parse"
    )
    hot = [parse_request(b) for b in inputs.hot_loss]
    out["protocol.key_us"] = _per_call_us(
        lambda: [r.key() for r in hot * 4], len(hot) * 4, tracer, "protocol.key"
    )
    lru = MemoryLRU()
    keys = [r.key() for r in hot]
    for key in keys:
        lru.put(key, {"estimate": 0.0})
    lookups = keys * 500
    out["lru.get_us"] = _per_call_us(
        lambda: [lru.get(k) for k in lookups], len(lookups), tracer, "lru.get"
    )

    workdir = Path(tempfile.mkdtemp(prefix="inproc-", dir=root / OUT_DIR))
    engine = TimedEngine(
        tracer,
        backend=TimedBackend(ProcessPoolBackend(jobs=2), tracer),
        cache=TimedCache(workdir / "cache", tracer),
    )
    service = QueryService(engine)
    try:
        for request in hot:
            service.query(request)
        times = []
        for body in inputs.hot_mix(2000):
            request = parse_request(body)
            with tracer.span("service.query", kind=request.kind) as span:
                service.query(request)
            times.append(span.seconds)
        p50_us = percentile(times, 50) * 1e6
        out["service.hot_query_p50_us"] = p50_us
        out["transport.hot_share"] = 1.0 - p50_us / (http_hot_p50_ms * 1e3)

        # Fresh keys on the miss schedule, so windows form as over HTTP.
        offsets = inputs.poisson(MISS_RATE, miss_seconds)
        fresh = [_loss_body(b) for b in inputs.fresh_buffers(len(offsets))]
        first_window = len(tracer.named("engine.run_tasks"))
        futures = []
        start = time.perf_counter()
        for offset, body in zip(offsets, fresh):
            delay = start + float(offset) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(asyncio.run_coroutine_threadsafe(
                service.core.handle(parse_request(body)), service.loop
            ))
        for body, future in zip(fresh, futures):
            ledger.attempted += 1
            try:
                answer = future.result(timeout=60)
            except Exception as error:  # any failure counts against the run
                ledger.fail(f"in-process {body}: {error!r}")
                continue
            if not loss_answer_ok(answer.get("result")):
                ledger.fail(f"in-process Prop. II.1 violated for {body}", wrong=True)
        windows = [s.seconds for s in tracer.named("engine.run_tasks")[first_window:]]
        out["engine.run_tasks_p50_ms"] = percentile(windows, 50) * 1e3 if windows else 0.0
    finally:
        service.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return out

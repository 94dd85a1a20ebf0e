"""The simulation engine: compiled state + the event-processing loop.

This is the *state* layer of the entities/events/state split.  A
:class:`~repro.netsim.topology.Topology` of frozen entities is compiled
into mutable per-node runtimes; the engine then processes events off a
:class:`~repro.netsim.events.EventLoop` and, between events, every
quantity evolves linearly — fluid rates are piecewise constant, so the
only instants anything changes are source rate switches and buffer
boundary hits, which is exactly the event set.

Semantics
---------
Aggregate dynamics per buffer are exact: with input rate ``R``, service
``c`` and buffer ``B``, occupancy follows ``dQ/dt = R - c`` clipped at
``0`` and ``B``, and overflow fluid is lost at rate ``R - c`` while
full.  For a single queue fed by one renewal flow this reproduces the
paper's Eq. 9 recursion *exactly* (each interval's drift has constant
sign, so clipping once per interval equals clipping continuously) —
the cross-validation tests and the :mod:`repro.verify` oracle rely on
this identity.

Per-flow accounting within a shared buffer uses a proportional split:
losses divide in proportion to instantaneous input rates, service in
proportion to per-flow backlog (falling back to input shares when the
buffer is empty), with shares frozen between events.  Aggregate
behavior — and any topology where co-resident flows share a next hop,
as in the tandem and multiplexer presets — is unaffected by this
approximation.

Determinism
-----------
``simulate(topology, ..., seed=s)`` is a pure function of its
arguments: per-flow randomness comes from ``SeedSequence(entropy=s,
spawn_key=(flow_index,))`` streams, every collection is iterated in
declaration order, and event ties are broken by the deterministic
``(time, kind, seq)`` heap key.  Two runs with the same seed produce
bit-identical event traces and statistics (a tested invariant).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.validation import check_nonnegative, check_positive
from repro.netsim.events import BOUNDARY, CONTROL, RATE_CHANGE, Event, EventLoop
from repro.netsim.nodes import MuxNode, PriorityNode, QueueNode, SinkNode
from repro.netsim.topology import Topology

__all__ = ["FlowStats", "NetSimResult", "NodeStats", "simulate"]


# --------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class NodeStats:
    """Measured-window statistics of one node.

    ``loss_rate`` is lost work over arrived work; ``mean_delay`` is the
    Little's-law delay ``E[Q] / throughput`` in seconds; ``full_fraction``
    and ``empty_fraction`` are the time fractions spent pinned at the
    buffer boundaries (averaged over classes for priority nodes).
    """

    name: str
    kind: str
    arrived_work: float
    served_work: float
    lost_work: float
    loss_rate: float
    mean_occupancy: float
    mean_delay: float
    full_fraction: float
    empty_fraction: float


@dataclass(frozen=True)
class FlowStats:
    """Measured-window statistics of one flow (end to end).

    ``mean_delay`` sums the flow's Little's-law delays over every hop:
    total backlog-integral along the route divided by delivered work.
    """

    name: str
    offered_work: float
    delivered_work: float
    lost_work: float
    loss_rate: float
    mean_delay: float


@dataclass(frozen=True)
class NetSimResult:
    """Everything one simulation run produced."""

    duration: float
    warmup: float
    node_stats: dict[str, NodeStats]
    flow_stats: dict[str, FlowStats]
    events_processed: int
    events_stale: int
    wall_seconds: float
    event_trace: tuple[tuple[float, str, str, float], ...] | None = None

    @property
    def events_per_second(self) -> float:
        """Processed events per wall-clock second (the benchmark metric)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_processed / self.wall_seconds

    def summary(self) -> dict[str, float]:
        """Flat mapping for ``reporting.format_mapping``."""
        values: dict[str, float] = {
            "events_processed": float(self.events_processed),
            "events_stale": float(self.events_stale),
            "events_per_second": self.events_per_second,
            "wall_seconds": self.wall_seconds,
        }
        for name, stats in self.node_stats.items():
            values[f"{name}.loss_rate"] = stats.loss_rate
            values[f"{name}.mean_occupancy"] = stats.mean_occupancy
            values[f"{name}.mean_delay_s"] = stats.mean_delay
        return values


# --------------------------------------------------------------------- #
# runtime state
# --------------------------------------------------------------------- #


class _FluidBuffer:
    """One finite fluid buffer with piecewise-constant input and service."""

    __slots__ = (
        "capacity", "service", "occupancy", "last_time", "epoch",
        "in_rate", "in_total", "out_rate", "out_total",
        "loss_rate", "loss_total", "drift", "at_full", "at_empty",
        "backlog", "arrived", "lost", "arrived_total", "served_total",
        "lost_total", "occupancy_integral", "backlog_integral",
        "full_time", "empty_time",
    )

    def __init__(self, capacity: float, flow_ids: list[int]) -> None:
        self.capacity = capacity
        self.service = 0.0
        self.occupancy = 0.0
        self.last_time = 0.0
        self.epoch = 0
        self.in_rate = {fid: 0.0 for fid in flow_ids}
        self.in_total = 0.0
        self.out_rate = {fid: 0.0 for fid in flow_ids}
        self.out_total = 0.0
        self.loss_rate = {fid: 0.0 for fid in flow_ids}
        self.loss_total = 0.0
        self.drift = 0.0
        self.at_full = False
        self.at_empty = True
        self.backlog = {fid: 0.0 for fid in flow_ids}
        self.arrived = {fid: 0.0 for fid in flow_ids}
        self.lost = {fid: 0.0 for fid in flow_ids}
        self.arrived_total = 0.0
        self.served_total = 0.0
        self.lost_total = 0.0
        self.occupancy_integral = 0.0
        self.backlog_integral = {fid: 0.0 for fid in flow_ids}
        self.full_time = 0.0
        self.empty_time = 0.0

    def advance(self, t: float) -> None:
        """Integrate the current linear regime up to time ``t``."""
        dt = t - self.last_time
        if dt <= 0.0:
            return
        self.arrived_total += self.in_total * dt
        self.served_total += self.out_total * dt
        self.lost_total += self.loss_total * dt
        self.occupancy_integral += (self.occupancy + 0.5 * self.drift * dt) * dt
        for fid, rate in self.in_rate.items():
            self.arrived[fid] += rate * dt
            loss = self.loss_rate[fid]
            self.lost[fid] += loss * dt
            net = rate - self.out_rate[fid] - loss
            backlog = self.backlog[fid]
            self.backlog_integral[fid] += (backlog + 0.5 * net * dt) * dt
            self.backlog[fid] = backlog + net * dt
        if self.at_full:
            self.full_time += dt
        elif self.at_empty:
            self.empty_time += dt
        self.occupancy = min(
            self.capacity, max(0.0, self.occupancy + self.drift * dt)
        )
        self._reconcile_backlogs()
        self.last_time = t

    def _reconcile_backlogs(self) -> None:
        """Clamp per-flow backlogs and rescale them to sum to the aggregate."""
        total = 0.0
        for fid, backlog in self.backlog.items():
            if backlog < 0.0:
                backlog = 0.0
                self.backlog[fid] = 0.0
            total += backlog
        if total > 0.0:
            scale = self.occupancy / total
            for fid in self.backlog:
                self.backlog[fid] *= scale
        elif self.occupancy > 0.0 and self.in_total > 0.0:
            for fid, rate in self.in_rate.items():
                self.backlog[fid] = self.occupancy * rate / self.in_total

    def snap(self, target: float) -> None:
        """Land exactly on a boundary (cancels accumulated float drift)."""
        self.occupancy = min(self.capacity, max(0.0, target))
        self._reconcile_backlogs()

    def recompute(self) -> list[tuple[int, float]]:
        """Re-derive the linear regime; returns changed ``(flow, out_rate)``."""
        self.epoch += 1
        total_in = 0.0
        for rate in self.in_rate.values():
            total_in += rate
        self.in_total = total_in
        capacity = self.capacity
        service = self.service
        occupancy = self.occupancy
        if occupancy >= capacity and total_in >= service:
            self.occupancy = capacity
            out_total = service
            loss_total = total_in - service
            self.drift = 0.0
            self.at_full = True
            self.at_empty = False
        elif occupancy <= 0.0 and total_in <= service:
            self.occupancy = 0.0
            out_total = total_in
            loss_total = 0.0
            self.drift = 0.0
            self.at_full = False
            self.at_empty = True
        else:
            out_total = service
            loss_total = 0.0
            self.drift = total_in - service
            self.at_full = False
            self.at_empty = False
        self.loss_total = loss_total
        changed: list[tuple[int, float]] = []
        # Output split: backlog shares while fluid is queued, input shares
        # on pass-through; loss splits by input shares (frozen per regime).
        backlog_total = 0.0
        if self.occupancy > 0.0:
            for backlog in self.backlog.values():
                backlog_total += backlog
        for fid, rate in self.in_rate.items():
            if out_total <= 0.0:
                out = 0.0
            elif backlog_total > 0.0:
                out = out_total * self.backlog[fid] / backlog_total
            elif total_in > 0.0:
                out = out_total * rate / total_in
            else:
                out = 0.0
            if out != self.out_rate[fid]:
                self.out_rate[fid] = out
                changed.append((fid, out))
            self.loss_rate[fid] = (
                loss_total * rate / total_in if total_in > 0.0 else 0.0
            )
        self.out_total = out_total
        return changed

    def boundary(self) -> tuple[float, float, str] | None:
        """``(time_delta, target, tag)`` of the next boundary hit, if any."""
        if self.drift > 0.0 and self.capacity != math.inf:
            return (self.capacity - self.occupancy) / self.drift, self.capacity, "full"
        if self.drift < 0.0:
            return self.occupancy / (-self.drift), 0.0, "empty"
        return None

    def reset_stats(self) -> None:
        self.arrived_total = 0.0
        self.served_total = 0.0
        self.lost_total = 0.0
        self.occupancy_integral = 0.0
        self.full_time = 0.0
        self.empty_time = 0.0
        for fid in self.arrived:
            self.arrived[fid] = 0.0
            self.lost[fid] = 0.0
            self.backlog_integral[fid] = 0.0


class _BufferedRuntime:
    """A queue or priority node: fluid buffers on leftover service.

    ``classes`` holds one :class:`_FluidBuffer` per priority class,
    strictest (lowest number) first; each class is served with whatever
    rate the stricter classes leave unused.  A FIFO queue is one class.
    """

    __slots__ = ("name", "kind", "service_rate", "classes", "class_of")

    def __init__(
        self, node: QueueNode | PriorityNode, class_flows: dict[int, list[int]]
    ) -> None:
        self.name = node.name
        self.kind = node.kind
        self.service_rate = node.service_rate
        priorities = sorted(class_flows)
        self.classes = tuple(
            _FluidBuffer(node.buffer, class_flows[priority]) for priority in priorities
        )
        self.class_of = {
            fid: position
            for position, priority in enumerate(priorities)
            for fid in class_flows[priority]
        }

    def advance(self, t: float) -> None:
        for buf in self.classes:
            buf.advance(t)

    def set_in(self, fid: int, rate: float) -> None:
        self.classes[self.class_of[fid]].in_rate[fid] = rate

    def recompute(self) -> list[tuple[int, float]]:
        """Re-derive every class's regime; returns changed ``(flow, out_rate)``."""
        changed: list[tuple[int, float]] = []
        available = self.service_rate
        for buf in self.classes:
            buf.service = available
            changed += buf.recompute()
            available = max(0.0, available - buf.out_total)
        return changed

    def reset_stats(self) -> None:
        for buf in self.classes:
            buf.reset_stats()

    def arrived_of(self, fid: int) -> float:
        return self.classes[self.class_of[fid]].arrived.get(fid, 0.0)

    def lost_of(self, fid: int) -> float:
        return self.classes[self.class_of[fid]].lost.get(fid, 0.0)

    def backlog_integral_of(self, fid: int) -> float:
        return self.classes[self.class_of[fid]].backlog_integral.get(fid, 0.0)

    def node_stats(self, measured: float) -> NodeStats:
        arrived = sum(buf.arrived_total for buf in self.classes)
        served = sum(buf.served_total for buf in self.classes)
        lost = sum(buf.lost_total for buf in self.classes)
        occupancy_integral = sum(buf.occupancy_integral for buf in self.classes)
        n = len(self.classes)
        full = sum(buf.full_time for buf in self.classes) / n
        empty = sum(buf.empty_time for buf in self.classes) / n
        return NodeStats(
            name=self.name,
            kind=self.kind,
            arrived_work=arrived,
            served_work=served,
            lost_work=lost,
            loss_rate=lost / arrived if arrived > 0.0 else 0.0,
            mean_occupancy=occupancy_integral / measured if measured > 0.0 else 0.0,
            mean_delay=occupancy_integral / served if served > 0.0 else 0.0,
            full_fraction=full / measured if measured > 0.0 else 0.0,
            empty_fraction=empty / measured if measured > 0.0 else 0.0,
        )


class _PassRuntime:
    """Lossless fan-in (mux): outputs mirror inputs instantaneously."""

    __slots__ = ("name", "kind", "in_rate", "out_rate", "arrived", "last_time")

    classes: tuple[_FluidBuffer, ...] = ()

    def __init__(self, node: MuxNode | SinkNode, flow_ids: list[int]) -> None:
        self.name = node.name
        self.kind = node.kind
        self.in_rate = {fid: 0.0 for fid in flow_ids}
        self.out_rate = {fid: 0.0 for fid in flow_ids}
        self.arrived = {fid: 0.0 for fid in flow_ids}
        self.last_time = 0.0

    def advance(self, t: float) -> None:
        dt = t - self.last_time
        if dt <= 0.0:
            return
        for fid, rate in self.in_rate.items():
            self.arrived[fid] += rate * dt
        self.last_time = t

    def set_in(self, fid: int, rate: float) -> None:
        self.in_rate[fid] = rate

    def recompute(self) -> list[tuple[int, float]]:
        changed = []
        for fid, rate in self.in_rate.items():
            if rate != self.out_rate[fid]:
                self.out_rate[fid] = rate
                changed.append((fid, rate))
        return changed

    def reset_stats(self) -> None:
        for fid in self.arrived:
            self.arrived[fid] = 0.0

    def arrived_of(self, fid: int) -> float:
        return self.arrived.get(fid, 0.0)

    def lost_of(self, fid: int) -> float:
        return 0.0

    def backlog_integral_of(self, fid: int) -> float:
        return 0.0

    def node_stats(self, measured: float) -> NodeStats:
        arrived = sum(self.arrived.values())
        return NodeStats(
            name=self.name,
            kind=self.kind,
            arrived_work=arrived,
            served_work=arrived,
            lost_work=0.0,
            loss_rate=0.0,
            mean_occupancy=0.0,
            mean_delay=0.0,
            full_fraction=0.0,
            empty_fraction=0.0,
        )


class _SinkRuntime(_PassRuntime):
    """Absorbing node: integrates delivered work per flow, forwards nothing."""

    __slots__ = ()

    def recompute(self) -> list[tuple[int, float]]:
        return []


# --------------------------------------------------------------------- #
# compilation + the engine
# --------------------------------------------------------------------- #


def _compile(topology: Topology) -> list[_BufferedRuntime | _PassRuntime]:
    """Build runtime state per node, in declaration order."""
    visiting: dict[str, list[int]] = {node.name: [] for node in topology.nodes}
    priorities: dict[str, dict[int, list[int]]] = {
        node.name: {} for node in topology.nodes
    }
    for fid, flow in enumerate(topology.flows):
        for hop in flow.route:
            visiting[hop].append(fid)
            priorities[hop].setdefault(flow.priority, []).append(fid)
    runtimes: list[_BufferedRuntime | _PassRuntime] = []
    for node in topology.nodes:
        fids = visiting[node.name]
        if isinstance(node, QueueNode):
            runtimes.append(_BufferedRuntime(node, {0: fids}))
        elif isinstance(node, PriorityNode):
            runtimes.append(_BufferedRuntime(node, priorities[node.name] or {0: []}))
        elif isinstance(node, MuxNode):
            runtimes.append(_PassRuntime(node, fids))
        else:
            runtimes.append(_SinkRuntime(node, fids))
    return runtimes


def simulate(
    topology: Topology,
    duration: float,
    warmup: float = 0.0,
    seed: int = 0,
    record_trace: bool = False,
) -> NetSimResult:
    """Run one seeded simulation of ``topology``.

    Parameters
    ----------
    topology:
        The validated network description.
    duration:
        Measured horizon, simulation seconds.
    warmup:
        Seconds simulated before statistics start accumulating (reduces
        the empty-start bias, exactly like the Monte Carlo simulator's
        warmup intervals).
    seed:
        Master seed; flow ``i`` draws from the child stream
        ``SeedSequence(entropy=seed, spawn_key=(i,))``.
    record_trace:
        Keep the full processed-event trace ``(time, tag, target,
        value)`` on the result (the determinism tests compare these bit
        for bit; large runs should leave it off).
    """
    duration = check_positive("duration", duration)
    warmup = check_nonnegative("warmup", warmup)
    runtimes = _compile(topology)
    index_of = {node.name: i for i, node in enumerate(topology.nodes)}
    order = [index_of[name] for name in topology.order]
    # next_hop[fid][node_index] -> downstream node index (or -1).
    next_hop = [
        {
            index_of[src]: index_of[dst]
            for src, dst in zip(flow.route[:-1], flow.route[1:])
        }
        for flow in topology.flows
    ]
    entry = [index_of[flow.route[0]] for fid, flow in enumerate(topology.flows)]
    flow_names = [flow.name for flow in topology.flows]

    loop = EventLoop()
    end_time = warmup + duration
    trace: list[tuple[float, str, str, float]] = []

    # Per-flow segment iterators; one outstanding rate event per flow.
    iterators = []
    pending_duration = [0.0] * len(topology.flows)
    for fid, flow in enumerate(topology.flows):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(fid,))
        )
        iterator = iter(flow.source.segments(rng))
        iterators.append(iterator)
        first = next(iterator, None)
        if first is not None:
            seg_duration, seg_rate = first
            pending_duration[fid] = float(seg_duration)
            loop.schedule(
                0.0,
                Event(RATE_CHANGE, flow=fid, value=float(seg_rate), tag="rate"),
            )
    if warmup > 0.0:
        loop.schedule(warmup, Event(CONTROL, tag="reset"))
    loop.schedule(end_time, Event(CONTROL, tag="end"))

    dirty = [False] * len(runtimes)
    measure_start = 0.0
    started = time.perf_counter()

    while loop:
        t, _seq, event = loop.pop()
        if event.kind == BOUNDARY:
            if runtimes[event.node].classes[event.subqueue].epoch != event.epoch:
                loop.stale += 1
                continue
        loop.processed += 1
        if record_trace:
            if event.kind == RATE_CHANGE:
                target = flow_names[event.flow]
            elif event.kind == BOUNDARY:
                target = f"{runtimes[event.node].name}[{event.subqueue}]"
            else:
                target = ""
            trace.append((t, event.tag, target, event.value))

        if event.kind == RATE_CHANGE:
            node_index = entry[event.flow]
            runtime = runtimes[node_index]
            runtime.advance(t)
            runtime.set_in(event.flow, event.value)
            dirty[node_index] = True
            nxt = next(iterators[event.flow], None)
            change_at = t + pending_duration[event.flow]
            if nxt is not None and change_at < end_time:
                seg_duration, seg_rate = nxt
                pending_duration[event.flow] = float(seg_duration)
                loop.schedule(
                    change_at,
                    Event(
                        RATE_CHANGE,
                        flow=event.flow,
                        value=float(seg_rate),
                        tag="rate",
                    ),
                )
        elif event.kind == BOUNDARY:
            runtime = runtimes[event.node]
            runtime.advance(t)
            runtime.classes[event.subqueue].snap(event.value)
            dirty[event.node] = True
        else:  # CONTROL
            for runtime in runtimes:
                runtime.advance(t)
            if event.tag == "reset":
                for runtime in runtimes:
                    runtime.reset_stats()
                measure_start = t
                continue
            break  # "end"

        # Propagate downstream in topological order: additions made while
        # scanning are always at later positions, so one pass suffices.
        for node_index in order:
            if not dirty[node_index]:
                continue
            dirty[node_index] = False
            runtime = runtimes[node_index]
            runtime.advance(t)
            changed = runtime.recompute()
            # Classes schedule in class order once the node has recomputed;
            # a class's boundary depends only on its own buffer.
            for subqueue, buf in enumerate(runtime.classes):
                hit = buf.boundary()
                if hit is None:
                    continue
                delta, target, tag = hit
                hit_at = t + delta
                if hit_at <= end_time:
                    loop.schedule(
                        hit_at,
                        Event(
                            BOUNDARY,
                            node=node_index,
                            subqueue=subqueue,
                            epoch=buf.epoch,
                            value=target,
                            tag=tag,
                        ),
                    )
            for fid, rate in changed:
                downstream = next_hop[fid].get(node_index, -1)
                if downstream >= 0:
                    successor = runtimes[downstream]
                    successor.advance(t)
                    successor.set_in(fid, rate)
                    dirty[downstream] = True

    wall = time.perf_counter() - started
    measured = end_time - measure_start

    node_stats = {
        runtime.name: runtime.node_stats(measured) for runtime in runtimes
    }
    flow_stats: dict[str, FlowStats] = {}
    for fid, flow in enumerate(topology.flows):
        offered = runtimes[entry[fid]].arrived_of(fid)
        sink = runtimes[index_of[flow.route[-1]]]
        delivered = sink.arrived_of(fid)
        lost = sum(runtimes[index_of[hop]].lost_of(fid) for hop in flow.route)
        backlog_integral = sum(
            runtimes[index_of[hop]].backlog_integral_of(fid) for hop in flow.route
        )
        flow_stats[flow.name] = FlowStats(
            name=flow.name,
            offered_work=offered,
            delivered_work=delivered,
            lost_work=lost,
            loss_rate=lost / offered if offered > 0.0 else 0.0,
            mean_delay=backlog_integral / delivered if delivered > 0.0 else 0.0,
        )

    return NetSimResult(
        duration=duration,
        warmup=warmup,
        node_stats=node_stats,
        flow_stats=flow_stats,
        events_processed=loop.processed,
        events_stale=loop.stale,
        wall_seconds=wall,
        event_trace=tuple(trace) if record_trace else None,
    )

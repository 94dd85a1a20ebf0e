"""Pinned bits of the netsim engine, one digest per reference topology.

``netsim_bits.json`` records, for each topology below, the sha256 of
``repr((event_trace, sorted(node_stats.items()), sorted(flow_stats.items()),
events_processed, events_stale))`` from one seeded run.  ``repr`` of a
float round-trips exactly, so any change to a single bit of the trace or
of a statistic — or to the order events are scheduled in — fails here.
A refactor of the runtime state layer must keep every digest.

Regenerate (only for a deliberate change to the simulation semantics)::

    PYTHONPATH=src python -c "import json; from tests.netsim.test_netsim_bits \\
        import observe; print(json.dumps(observe(), indent=1))" \\
        > tests/netsim/netsim_bits.json
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.core.marginal import DiscreteMarginal
from repro.core.source import CutoffFluidSource
from repro.netsim import (
    Flow,
    MuxNode,
    PriorityNode,
    QueueNode,
    RenewalSource,
    SinkNode,
    Topology,
    multiplexer_topology,
    simulate,
    tandem_topology,
)

PINNED = Path(__file__).with_name("netsim_bits.json")

RUN = {"duration": 60.0, "warmup": 6.0, "seed": 5, "record_trace": True}


def _priority_chain() -> Topology:
    """mux -> two-class priority node -> unbounded queue -> sink."""
    source = RenewalSource(
        CutoffFluidSource.from_hurst(
            marginal=DiscreteMarginal.two_state(low=0.0, high=2.0, prob_high=0.5),
            hurst=0.8,
            mean_interval=0.05,
            cutoff=2.0,
        )
    )
    service = 4 * source.mean_rate / 0.9
    route = ("mux", "prio", "tail", "sink")
    return Topology(
        nodes=(
            MuxNode("mux"),
            PriorityNode("prio", service_rate=service, buffer=0.1 * service),
            QueueNode("tail", service_rate=0.95 * service, buffer=math.inf),
            SinkNode("sink"),
        ),
        links=tuple(zip(route[:-1], route[1:])),
        flows=tuple(
            Flow(f"src{i}", source, route=route, priority=i % 2) for i in range(4)
        ),
    )


TOPOLOGIES = {
    "tandem_2_hops": lambda: tandem_topology(0.9, 0.1, hops=2),
    "tandem_8_hops": lambda: tandem_topology(0.9, 0.1, hops=8),
    "mux_16_sources": lambda: multiplexer_topology(0.9, 0.1, sources=16),
    "mux_priority_unbounded": _priority_chain,
}


def _digest(name: str) -> str:
    result = simulate(TOPOLOGIES[name](), **RUN)
    observed = (
        result.event_trace,
        sorted(result.node_stats.items()),
        sorted(result.flow_stats.items()),
        result.events_processed,
        result.events_stale,
    )
    return hashlib.sha256(repr(observed).encode()).hexdigest()


def observe() -> dict:
    """Everything the pinned file records, computed by the current code."""
    return {name: _digest(name) for name in TOPOLOGIES}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


def test_pinned_file_covers_every_topology(pinned):
    assert sorted(pinned) == sorted(TOPOLOGIES)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_trace_and_stats_bits(pinned, name):
    assert _digest(name) == pinned[name]

"""Pinned float bits of the bounded solver, one cell per exit path.

``solver_bits.json`` records, for each cell below, ``float.hex`` of both
loss bounds plus the iteration count, bin count, exit flags, steps per
refinement level and FFT transform count, and sha256 digests of the pmfs
behind :meth:`FluidQueue.occupancy_bounds` and
:meth:`FluidQueue.stationary_occupancy`.  Unlike the ``rel=0.02`` golden
values, any change to a single bit fails here, so a refactor of the
stepping kernel or the solve loop must keep ``SOLVER_VERSION`` honest.

Regenerate (only for a deliberate numeric change, with a version bump)::

    PYTHONPATH=src python -c "import json; from tests.core.test_solver_bits \\
        import observe; print(json.dumps(observe(), indent=1))" \\
        > tests/core/solver_bits.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.marginal import DiscreteMarginal
from repro.core.solver import FluidQueue, SolverConfig
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto

PINNED = Path(__file__).with_name("solver_bits.json")

DEFAULT = SolverConfig()

# name -> (cutoff, service_rate, buffer_size, config)
CELLS = {
    "direct_gap": (1.0, 1.25, 0.5, DEFAULT),
    "direct_gap_two_blocks": (20.0, 1.4, 2.0, DEFAULT),
    "refine_to_spectral": (20.0, 1.1, 8.0, DEFAULT),
    "refine_deep": (10.0, 1.2, 3.0, SolverConfig(relative_gap=0.02)),
    "negligible": (0.5, 1.9, 20.0, DEFAULT),
    "max_bins_direct": (
        5.0, 1.25, 1.0, SolverConfig(initial_bins=16, max_bins=32, relative_gap=0.001)
    ),
    "max_bins_spectral": (
        5.0, 1.25, 1.0,
        SolverConfig(
            initial_bins=64, max_bins=256, relative_gap=0.001, fft_threshold_bins=0
        ),
    ),
    "max_iterations": (
        5.0, 1.25, 1.0,
        SolverConfig(relative_gap=0.001, block_iterations=16, max_iterations=80),
    ),
    "max_iterations_after_refine": (
        20.0, 1.1, 4.0, SolverConfig(relative_gap=0.01, max_iterations=400)
    ),
    "peak_at_most_c": (5.0, 2.0, 1.0, DEFAULT),
    "zero_buffer": (5.0, 1.25, 0.0, DEFAULT),
    "no_fft": (
        5.0, 1.25, 1.0,
        SolverConfig(use_fft=False, initial_bins=32, max_bins=256, relative_gap=0.05),
    ),
    "fft_threshold_zero": (
        5.0, 1.25, 1.0,
        SolverConfig(fft_threshold_bins=0, initial_bins=64, relative_gap=0.05),
    ),
}


def _queue(cutoff: float, service_rate: float, buffer_size: float) -> FluidQueue:
    source = CutoffFluidSource(
        marginal=DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5]),
        interarrival=TruncatedPareto(theta=0.1, alpha=1.4, cutoff=cutoff),
    )
    return FluidQueue(source=source, service_rate=service_rate, buffer_size=buffer_size)


def _cell(name: str) -> dict:
    cutoff, service_rate, buffer_size, config = CELLS[name]
    result = _queue(cutoff, service_rate, buffer_size).loss_rate(config)
    stats = result.stats
    return {
        "lower": float(result.lower).hex(),
        "upper": float(result.upper).hex(),
        "iterations": result.iterations,
        "bins": result.bins,
        "converged": result.converged,
        "negligible": result.negligible,
        "steps_per_level": [list(level) for level in stats.steps_per_level]
        if stats is not None
        else None,
        "transforms": stats.transforms if stats is not None else None,
    }


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return sha.hexdigest()


def _occupancy() -> dict:
    queue = _queue(5.0, 1.25, 1.0)
    digests = {}
    for label, threshold in (("direct", 256), ("spectral", 0)):
        snapshots = queue.occupancy_bounds((5, 10, 30), fft_threshold_bins=threshold)
        digests[f"occupancy_bounds_{label}"] = [
            _digest(s.grid, s.lower_pmf, s.upper_pmf) for s in snapshots
        ]
    stationary = _queue(20.0, 1.1, 4.0).stationary_occupancy()
    digests["stationary_occupancy"] = {
        "digest": _digest(stationary.grid, stationary.lower_pmf, stationary.upper_pmf),
        "iterations": stationary.iterations,
        "bins": len(stationary.grid) - 1,
    }
    return digests


def observe() -> dict:
    """Everything the pinned file records, computed by the current code."""
    return {"cells": {name: _cell(name) for name in CELLS}, "occupancy": _occupancy()}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


def test_pinned_file_covers_every_cell(pinned):
    assert sorted(pinned["cells"]) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_loss_rate_bits(pinned, name):
    assert _cell(name) == pinned["cells"][name]


def test_occupancy_pmf_digests(pinned):
    assert _occupancy() == pinned["occupancy"]


def test_cells_cover_every_exit(pinned):
    cells = pinned["cells"]
    assert cells["negligible"]["negligible"]
    assert not cells["max_bins_direct"]["converged"]
    assert cells["max_bins_direct"]["bins"] == 32
    assert not cells["max_iterations"]["converged"]
    assert cells["max_iterations"]["iterations"] == 80
    assert cells["peak_at_most_c"]["bins"] == 0
    assert cells["zero_buffer"]["bins"] == 0
    assert cells["refine_to_spectral"]["bins"] >= 256

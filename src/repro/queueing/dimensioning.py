"""Capacity planning on top of the loss solver (the paper's Section IV advice).

The paper's engineering conclusion — statistical multiplexing and source
control beat buffering — becomes actionable with three inverse problems:

* :func:`required_service_rate` — smallest service rate meeting a loss
  target at a given buffer (the source's *effective bandwidth* at that
  operating point);
* :func:`required_buffer` — smallest buffer meeting a loss target at a
  given utilization (often *no* finite buffer in the sweep works for LRD
  traffic — buffer ineffectiveness made concrete);
* :func:`multiplexing_gain` — per-stream effective bandwidth as streams
  are multiplexed (service and buffer per stream held constant), the
  quantity behind "achieve high utilization while keeping loss low".

All three wrap the bounded convolution solver with monotone bisection,
using the conservative *upper* loss bound so the answers are safe-side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.solver import FluidQueue, SolverConfig
from repro.core.source import CutoffFluidSource
from repro.core.validation import check_in_open_interval, check_positive

__all__ = [
    "dimensioning_summary",
    "required_service_rate",
    "required_buffer",
    "multiplexing_gain",
    "MultiplexingGain",
]


def _upper_loss(
    source: CutoffFluidSource,
    service_rate: float,
    buffer_size: float,
    config: SolverConfig,
) -> float:
    queue = FluidQueue(source=source, service_rate=service_rate, buffer_size=buffer_size)
    return queue.loss_rate(config).upper


def required_service_rate(
    source: CutoffFluidSource,
    normalized_buffer: float,
    target_loss: float,
    config: SolverConfig | None = None,
    tolerance: float = 0.01,
) -> float:
    """Smallest service rate whose (upper-bound) loss meets ``target_loss``.

    Parameters
    ----------
    source:
        The fluid input.
    normalized_buffer:
        Buffer size in seconds of service (``B = b * c`` tracks ``c``
        during the search, as in the paper's sweeps).
    target_loss:
        Loss-rate ceiling, e.g. ``1e-6``.
    config:
        Solver configuration (a tighter ``relative_gap`` gives a tighter
        answer).
    tolerance:
        Relative bisection tolerance on the returned rate.

    Returns
    -------
    The effective bandwidth: a rate in ``(mean_rate, peak_rate]``.  Rates
    at or above the peak trivially give zero loss; rates at or below the
    mean are unstable.
    """
    check_in_open_interval("target_loss", target_loss, 0.0, 1.0)
    check_positive("tolerance", tolerance)
    normalized_buffer = check_positive("normalized_buffer", normalized_buffer)
    config = config or SolverConfig(relative_gap=0.1)
    mean, peak = source.mean_rate, source.marginal.peak
    if peak <= mean:
        raise ValueError("source peak rate must exceed its mean rate")
    low = mean * (1.0 + 1e-6)  # unstable end: loss certainly above target
    high = peak  # loss exactly zero here
    while (high - low) > tolerance * high:
        mid = 0.5 * (low + high)
        loss = _upper_loss(source, mid, normalized_buffer * mid, config)
        if loss > target_loss:
            low = mid
        else:
            high = mid
    return high


def dimensioning_summary(
    source: CutoffFluidSource,
    normalized_buffer: float,
    target_loss: float,
    config: SolverConfig | None = None,
) -> dict[str, float]:
    """Effective bandwidth of ``source`` and the utilization it allows.

    The keys are the ones the CLI ``dimension`` subcommand prints and the
    query service returns.
    """
    bandwidth = required_service_rate(source, normalized_buffer, target_loss, config=config)
    return {
        "mean_rate": source.mean_rate,
        "peak_rate": source.marginal.peak,
        "effective_bandwidth": bandwidth,
        "achievable_utilization": source.mean_rate / bandwidth,
    }


def required_buffer(
    source: CutoffFluidSource,
    utilization: float,
    target_loss: float,
    max_normalized_buffer: float = 30.0,
    config: SolverConfig | None = None,
    tolerance: float = 0.02,
) -> float | None:
    """Smallest normalized buffer (seconds) meeting ``target_loss``, or None.

    Returns ``None`` when even ``max_normalized_buffer`` seconds of
    buffering misses the target — the paper's buffer-ineffectiveness
    regime, where the answer is "buy multiplexing, not memory".
    """
    utilization = check_in_open_interval("utilization", utilization, 0.0, 1.0)
    check_in_open_interval("target_loss", target_loss, 0.0, 1.0)
    check_positive("max_normalized_buffer", max_normalized_buffer)
    config = config or SolverConfig(relative_gap=0.1)
    service_rate = source.mean_rate / utilization

    def loss_at(buffer_seconds: float) -> float:
        return _upper_loss(source, service_rate, buffer_seconds * service_rate, config)

    if loss_at(max_normalized_buffer) > target_loss:
        return None
    low, high = 0.0, max_normalized_buffer
    while (high - low) > tolerance * max(high, 1e-9):
        mid = 0.5 * (low + high)
        if loss_at(mid) > target_loss:
            low = mid
        else:
            high = mid
    return high


@dataclass(frozen=True)
class MultiplexingGain:
    """Effective bandwidth per stream as multiplexing widens.

    Attributes
    ----------
    streams:
        Stream counts swept.
    per_stream_bandwidth:
        Effective bandwidth per stream (service per stream meeting the
        target), decreasing toward the mean rate as n grows.
    utilization:
        Achievable utilization ``mean_rate / per_stream_bandwidth``.
    """

    streams: np.ndarray
    per_stream_bandwidth: np.ndarray
    utilization: np.ndarray


def multiplexing_gain(
    source: CutoffFluidSource,
    normalized_buffer: float,
    target_loss: float,
    streams: np.ndarray,
    config: SolverConfig | None = None,
) -> MultiplexingGain:
    """Per-stream effective bandwidth across multiplexing levels.

    Models n multiplexed streams by the paper's superposition transform
    (n-fold convolution of the marginal renormalized to the original
    mean; per-stream buffer and service held constant) and computes the
    per-stream effective bandwidth at each n.
    """
    streams = np.asarray(streams, dtype=np.int64)
    if streams.size == 0 or np.any(streams < 1):
        raise ValueError("streams must be a non-empty array of positive counts")
    bandwidths = []
    for count in streams:
        merged = source.with_marginal(source.marginal.superposed(int(count)))
        bandwidths.append(
            required_service_rate(
                merged, normalized_buffer, target_loss, config=config
            )
        )
    per_stream = np.asarray(bandwidths)
    return MultiplexingGain(
        streams=streams,
        per_stream_bandwidth=per_stream,
        utilization=source.mean_rate / per_stream,
    )

"""Correlation-horizon estimators (paper Section IV, Eq. 26).

The paper's central concept: for a finite-buffer queue there is a time
scale — the *correlation horizon* (CH) — beyond which correlation in the
arrival process no longer affects the loss rate.  The buffer "forgets" the
past whenever it empties or fills (the resetting effect), so the CH is
estimated as the interval over which a reset happens with probability close
to one.

Implemented estimators:

* :func:`correlation_horizon` — the paper's Eq. 26, verbatim:
  ``T_CH = B mu / (2 sqrt(2) sigma_T sigma_lambda erfinv(p))``.
  Note a derivation subtlety: applying the CLT strictly (variance of the
  n-interval excess work growing like n) yields ``n ~ B^2``; Eq. 26 as
  printed treats the scale as growing like n and obtains the *linear*
  ``T_CH ~ B`` scaling the trace experiments confirm (Fig. 14).  We
  implement the paper's formula as primary and expose the CLT-consistent
  variant as :func:`correlation_horizon_clt` for comparison.
* :func:`norros_horizon` — the dominant time scale of a queue fed by
  fractional Brownian motion (Norros), ``t* = (B/(c - mean)) * H/(1-H)``,
  another linear-in-B horizon.
* :func:`empirical_horizon` — extracts the CH from a measured loss-vs-T_c
  curve: the smallest cutoff from which the loss stays within a relative
  band of its large-cutoff plateau.

``sigma_T`` is infinite for an untruncated Pareto, so Eq. 26 cannot be
evaluated at ``T_c = inf`` directly; :func:`correlation_horizon` then
solves the natural fixed point ``T = f(sigma_T(cutoff=T))`` — the horizon
is computed with the interval law truncated at the horizon itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfinv

from repro.core.source import CutoffFluidSource
from repro.core.validation import check_in_open_interval, check_positive

__all__ = [
    "correlation_horizon",
    "correlation_horizon_clt",
    "horizon_estimates",
    "norros_horizon",
    "empirical_horizon",
]


def _eq26(
    buffer_size: float, mean_interval: float, sigma_t: float, sigma_rate: float, p: float
) -> float:
    return buffer_size * mean_interval / (2.0 * math.sqrt(2.0) * sigma_t * sigma_rate * erfinv(p))


def correlation_horizon(
    source: CutoffFluidSource,
    buffer_size: float,
    no_reset_probability: float = 0.05,
    fixed_point_iterations: int = 64,
) -> float:
    """Analytic correlation horizon ``T_CH`` (paper Eq. 26).

    Parameters
    ----------
    source:
        The fluid source; supplies ``mu = E[T]``, ``sigma_T`` and
        ``sigma_lambda``.  If its cutoff is infinite (``sigma_T`` would be
        infinite), the horizon is solved self-consistently with the
        interval law truncated at the horizon itself.
    buffer_size:
        Buffer size ``B`` in work units.
    no_reset_probability:
        The paper's ``p`` — the (small) probability that no reset occurs
        within the horizon; smaller values give longer horizons.
    fixed_point_iterations:
        Iteration budget for the self-consistent solve (infinite-cutoff
        sources only).

    Returns
    -------
    The horizon ``T_CH`` in seconds.
    """
    buffer_size = check_positive("buffer_size", buffer_size)
    p = check_in_open_interval("no_reset_probability", no_reset_probability, 0.0, 1.0)
    sigma_rate = source.marginal.std
    if sigma_rate <= 0.0:
        raise ValueError("marginal distribution is degenerate; horizon undefined")

    law = source.interarrival
    if law.cutoff != math.inf:
        return _eq26(buffer_size, law.mean, law.std, sigma_rate, p)

    # Self-consistent solve: truncate the interval law at the candidate
    # horizon, recompute (mu, sigma_T), repeat.  f(T) is decreasing in T
    # (longer truncation -> larger sigma_T -> shorter horizon), so damped
    # fixed-point iteration converges quickly.
    horizon = buffer_size * law.mean / max(sigma_rate, 1e-12)  # crude initial scale
    for _ in range(fixed_point_iterations):
        truncated = law.with_cutoff(max(horizon, 1e-9))
        updated = _eq26(buffer_size, truncated.mean, truncated.std, sigma_rate, p)
        if abs(updated - horizon) <= 1e-9 * max(1.0, horizon):
            return updated
        horizon = 0.5 * (horizon + updated)
    return horizon


def correlation_horizon_clt(
    source: CutoffFluidSource,
    buffer_size: float,
    no_reset_probability: float = 0.05,
) -> float:
    """CLT-consistent variant of Eq. 26 (``n`` intervals with variance ~ n).

    Solving ``erfinv(p) = B / (2 sqrt(2 n) sigma_T sigma_lambda)`` for n and
    multiplying by the mean interval gives
    ``T_CH = mu B^2 / (8 sigma_T^2 sigma_lambda^2 erfinv(p)^2)`` — quadratic
    in B, unlike the paper's printed linear form.  Provided for the
    documented-discrepancy comparison in the Fig. 14 benchmark.
    """
    buffer_size = check_positive("buffer_size", buffer_size)
    p = check_in_open_interval("no_reset_probability", no_reset_probability, 0.0, 1.0)
    law = source.interarrival
    if law.cutoff == math.inf:
        raise ValueError("CLT variant needs a finite-cutoff interval law (finite sigma_T)")
    sigma_rate = source.marginal.std
    if sigma_rate <= 0.0:
        raise ValueError("marginal distribution is degenerate; horizon undefined")
    n = buffer_size**2 / (8.0 * law.variance * sigma_rate**2 * erfinv(p) ** 2)
    return n * law.mean


def norros_horizon(source: CutoffFluidSource, service_rate: float, buffer_size: float) -> float:
    """Norros' dominant time scale for fBm input: ``t* = B/(c - mean) * H/(1-H)``.

    The most probable time scale over which an fBm queue builds up to level
    B; linear in B like Eq. 26, and a useful cross-check on the horizon.
    Requires a stable queue (``mean rate < c``).
    """
    service_rate = check_positive("service_rate", service_rate)
    buffer_size = check_positive("buffer_size", buffer_size)
    slack = service_rate - source.mean_rate
    if slack <= 0.0:
        raise ValueError("norros_horizon requires utilization < 1")
    hurst = source.hurst
    return (buffer_size / slack) * hurst / (1.0 - hurst)


def horizon_estimates(
    source: CutoffFluidSource,
    utilization: float,
    normalized_buffer: float,
    no_reset_probability: float = 0.05,
) -> dict[str, float]:
    """Eq. 26 and Norros horizons at one operating point, in seconds.

    The service rate is ``mean_rate / utilization`` and the buffer
    ``normalized_buffer * service_rate``; the keys are the ones the CLI
    ``horizon`` subcommand prints and the query service returns.
    """
    service_rate = source.mean_rate / utilization
    buffer_size = normalized_buffer * service_rate
    return {
        "eq26_horizon_s": correlation_horizon(
            source, buffer_size, no_reset_probability=no_reset_probability
        ),
        "norros_horizon_s": norros_horizon(source, service_rate, buffer_size),
    }


def empirical_horizon(
    cutoffs: np.ndarray,
    losses: np.ndarray,
    relative_band: float = 0.25,
) -> float:
    """Extract the correlation horizon from a measured loss-vs-cutoff curve.

    The CH is the smallest cutoff from which the loss stays within
    ``relative_band`` (relative) of the large-cutoff plateau — beyond it,
    adding correlation no longer moves the loss.

    Parameters
    ----------
    cutoffs:
        Increasing cutoff lags ``T_c``.
    losses:
        Loss rates measured at those cutoffs.
    relative_band:
        Width of the plateau band relative to the plateau value.

    Returns
    -------
    The estimated horizon (one of the supplied cutoffs).
    """
    cutoffs = np.asarray(cutoffs, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    if cutoffs.shape != losses.shape or cutoffs.ndim != 1 or cutoffs.size < 2:
        raise ValueError("cutoffs and losses must be 1-D arrays of equal length >= 2")
    if np.any(np.diff(cutoffs) <= 0.0):
        raise ValueError("cutoffs must be strictly increasing")
    if np.any(losses < 0.0):
        raise ValueError("losses must be non-negative")
    check_in_open_interval("relative_band", relative_band, 0.0, 1.0)

    plateau = losses[-1]
    if plateau == 0.0:
        # No measurable loss anywhere near the plateau: the horizon is the
        # first cutoff at which the loss has already vanished.
        zero_tail = np.nonzero(losses > 0.0)[0]
        if zero_tail.size == 0:
            return float(cutoffs[0])
        return float(cutoffs[min(zero_tail[-1] + 1, cutoffs.size - 1)])
    within = np.abs(losses - plateau) <= relative_band * plateau
    # Find the earliest index from which *every* later point is in band.
    for index in range(cutoffs.size):
        if bool(np.all(within[index:])):
            return float(cutoffs[index])
    return float(cutoffs[-1])  # pragma: no cover - last point is always in band

"""Queueing substrate: simulators, MMFQ spectral solver, Markov comparators."""

from repro.queueing.cts import (
    DominantTimeScale,
    dominant_time_scale,
    gaussian_overflow_exponent,
)
from repro.queueing.fluid_sim import (
    TraceQueueResult,
    inter_reset_times,
    simulate_source_queue,
    simulate_trace_queue,
    simulate_trace_queue_multi,
)
from repro.queueing.markov import (
    HyperexponentialFit,
    fit_hyperexponential,
    fit_multiscale_source,
    multiscale_onoff_model,
    renewal_markov_source,
)
from repro.queueing.dimensioning import (
    MultiplexingGain,
    dimensioning_summary,
    multiplexing_gain,
    required_buffer,
    required_service_rate,
)
from repro.queueing.fbm import (
    fbm_parameters_from_source,
    norros_overflow_probability,
    weibull_tail_exponent,
)
from repro.queueing.mmfq import (
    MarkovFluidModel,
    mmfq_loss_rate,
    mmfq_occupancy_cdf,
    mmfq_overflow_probability,
)

__all__ = [
    "dimensioning_summary",
    "required_service_rate",
    "required_buffer",
    "multiplexing_gain",
    "MultiplexingGain",
    "norros_overflow_probability",
    "weibull_tail_exponent",
    "fbm_parameters_from_source",
    "mmfq_overflow_probability",
    "TraceQueueResult",
    "simulate_trace_queue",
    "simulate_trace_queue_multi",
    "simulate_source_queue",
    "inter_reset_times",
    "MarkovFluidModel",
    "mmfq_loss_rate",
    "mmfq_occupancy_cdf",
    "HyperexponentialFit",
    "fit_hyperexponential",
    "renewal_markov_source",
    "multiscale_onoff_model",
    "fit_multiscale_source",
    "DominantTimeScale",
    "dominant_time_scale",
    "gaussian_overflow_exponent",
]

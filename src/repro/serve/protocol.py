"""Request/response protocol of the loss-rate query service.

A request is one JSON object.  Three kinds are served:

``loss``
    One bounded loss-rate solve — the expensive kind.  These are the
    requests the service coalesces and micro-batches through the
    :class:`~repro.exec.engine.SweepEngine`.
``horizon``
    Analytic correlation-horizon estimates (Eq. 26 + Norros); closed
    form, evaluated inline at accept time.
``dimension``
    Effective-bandwidth dimensioning (bisection on the conservative
    upper bound); solver-driven but not expressible as a single
    :class:`~repro.exec.task.SolveTask`, so it runs in the calling
    worker thread, still deduplicated by the coalescer.

Every kind shares the paper's on/off source coordinates (``hurst``,
``mean_interval``, ``peak``, ``on_probability``, ``cutoff``) — the same
knobs the CLI ``solve`` subcommand exposes — plus optional solver
overrides.  Parsing is strict: unknown fields and out-of-range values
raise :class:`ProtocolError` (mapped to HTTP 400) instead of being
silently ignored, so a typo'd field name can never return a wrong
answer.

Identity: :meth:`QueryRequest.key` is the ``repro.core.fingerprint``
content hash of what is being computed.  For ``loss`` requests it is
*exactly* the engine's :meth:`~repro.exec.task.SolveTask.cache_key`, so
the in-flight coalescer and the persistent solve cache agree on which
requests are the same computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.fingerprint import payload_of, stable_hash
from repro.core.results import LossRateResult
from repro.core.solver import SolverConfig
from repro.core.source import CutoffFluidSource
from repro.exec.task import SolveTask

__all__ = ["KINDS", "ProtocolError", "QueryRequest", "parse_request", "result_payload"]

KINDS = ("loss", "horizon", "dimension")
"""Request kinds the service answers."""

_COMMON_FIELDS = {
    "kind", "hurst", "utilization", "buffer", "cutoff", "mean_interval",
    "peak", "on_probability", "timeout_s",
    "relative_gap", "initial_bins", "max_bins",
}
_KIND_FIELDS = {
    "loss": set(),
    "horizon": {"no_reset_probability"},
    "dimension": {"target_loss"},
}


class ProtocolError(ValueError):
    """A malformed or out-of-range request (HTTP 400)."""


@dataclass(frozen=True)
class QueryRequest:
    """One validated query in the paper's on/off source coordinates.

    Attributes mirror the CLI ``solve``/``horizon``/``dimension``
    subcommands; ``timeout_s`` caps how long the submitting client waits
    for the shared result, and the three solver knobs (``relative_gap``,
    ``initial_bins``, ``max_bins``) override the default
    :class:`~repro.core.solver.SolverConfig` when set.
    """

    kind: str
    hurst: float = 0.8
    utilization: float = 0.8
    buffer: float = 1.0
    cutoff: float = math.inf
    mean_interval: float = 0.05
    peak: float = 2.0
    on_probability: float = 0.5
    no_reset_probability: float = 0.05
    target_loss: float = 1e-6
    timeout_s: float | None = None
    relative_gap: float | None = None
    initial_bins: int | None = None
    max_bins: int | None = None

    def source(self) -> CutoffFluidSource:
        """The on/off cutoff fluid source these coordinates describe."""
        return CutoffFluidSource.on_off(
            hurst=self.hurst,
            mean_interval=self.mean_interval,
            peak=self.peak,
            on_probability=self.on_probability,
            cutoff=self.cutoff,
        )

    def config(self) -> SolverConfig | None:
        """Solver configuration, or ``None`` when no override was given."""
        if self.relative_gap is None and self.initial_bins is None and self.max_bins is None:
            return None
        base = SolverConfig()
        return SolverConfig(
            initial_bins=self.initial_bins or base.initial_bins,
            max_bins=self.max_bins or base.max_bins,
            relative_gap=(
                base.relative_gap if self.relative_gap is None else self.relative_gap
            ),
        )

    def task(self) -> SolveTask:
        """The engine task of a ``loss`` request."""
        if self.kind != "loss":
            raise ValueError(f"only 'loss' requests have solve tasks, not {self.kind!r}")
        return SolveTask(self.source(), self.utilization, self.buffer, self.config())

    def key(self) -> str:
        """Content hash identifying the *computation* (coalescing identity).

        For ``loss`` this is exactly the engine's solve-cache key; for
        the other kinds it hashes the analytic inputs the same way.
        """
        if self.kind == "loss":
            return self.task().cache_key()
        payload = {
            "kind": f"serve_{self.kind}",
            "source": payload_of(self.source()),
            "utilization": float(self.utilization).hex(),
            "buffer": float(self.buffer).hex(),
            "config": payload_of(self.config()),
        }
        if self.kind == "horizon":
            payload["no_reset_probability"] = float(self.no_reset_probability).hex()
        else:
            payload["target_loss"] = float(self.target_loss).hex()
        return stable_hash(payload)


def _number(obj: dict, name: str, default: float, low: float, high: float,
            *, open_low: bool = True, open_high: bool = True) -> float:
    value = obj.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"field {name!r} must be a number, got {value!r}")
    value = float(value)
    if math.isnan(value):
        raise ProtocolError(f"field {name!r} must not be NaN")
    below = value <= low if open_low else value < low
    above = value >= high if open_high else value > high
    if below or above:
        lo, hi = ("(" if open_low else "["), (")" if open_high else "]")
        raise ProtocolError(
            f"field {name!r} must lie in {lo}{low:g}, {high:g}{hi}, got {value:g}"
        )
    return value


def _optional_int(obj: dict, name: str, low: int) -> int | None:
    value = obj.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {name!r} must be an integer, got {value!r}")
    if value < low:
        raise ProtocolError(f"field {name!r} must be >= {low}, got {value}")
    return value


def parse_request(obj: object) -> QueryRequest:
    """Validate a decoded JSON object into a :class:`QueryRequest`.

    Raises :class:`ProtocolError` on anything malformed: wrong top-level
    type, missing/unknown ``kind``, unknown fields, non-numeric or
    out-of-range values.
    """
    if not isinstance(obj, dict):
        raise ProtocolError(f"request body must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ProtocolError(f"field 'kind' must be one of {KINDS}, got {kind!r}")
    allowed = _COMMON_FIELDS | _KIND_FIELDS[kind]
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ProtocolError(f"unknown field(s) for kind {kind!r}: {', '.join(unknown)}")

    timeout_s = obj.get("timeout_s")
    if timeout_s is not None:
        timeout_s = _number(obj, "timeout_s", 0.0, 0.0, 3600.0, open_high=False)
    relative_gap = None
    if obj.get("relative_gap") is not None:
        relative_gap = _number(obj, "relative_gap", 0.2, 0.0, 1.0)

    return QueryRequest(
        kind=kind,
        hurst=_number(obj, "hurst", 0.8, 0.5, 1.0),
        utilization=_number(obj, "utilization", 0.8, 0.0, 1.0),
        buffer=_number(obj, "buffer", 1.0, 0.0, math.inf),
        cutoff=_number(obj, "cutoff", math.inf, 0.0, math.inf, open_high=False),
        mean_interval=_number(obj, "mean_interval", 0.05, 0.0, math.inf),
        peak=_number(obj, "peak", 2.0, 0.0, math.inf),
        on_probability=_number(obj, "on_probability", 0.5, 0.0, 1.0),
        no_reset_probability=_number(obj, "no_reset_probability", 0.05, 0.0, 1.0),
        target_loss=_number(obj, "target_loss", 1e-6, 0.0, 1.0),
        timeout_s=timeout_s,
        relative_gap=relative_gap,
        initial_bins=_optional_int(obj, "initial_bins", 2),
        max_bins=_optional_int(obj, "max_bins", 2),
    )


def result_payload(result: LossRateResult) -> dict:
    """JSON-able body of a solved ``loss`` request."""
    return {
        "estimate": result.estimate,
        "lower": result.lower,
        "upper": result.upper,
        "iterations": result.iterations,
        "bins": result.bins,
        "converged": result.converged,
        "negligible": result.negligible,
    }

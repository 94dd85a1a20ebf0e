"""Bounded convolution solver for the finite-buffer fluid queue (Section II).

The queue occupancy at arrival epochs obeys the clipped random walk
``Q(n+1) = max(0, min(B, Q(n) + W(n)))`` (Eq. 9) with i.i.d. workload
increments ``W``.  The paper evolves two *discretized* occupancy
distributions:

* ``Q_L``: increments quantized **down** (floor), chain started **empty** —
  a stochastic lower bound, increasing in both the iteration count n and
  the bin count M;
* ``Q_H``: increments quantized **up** (ceil), chain started **full** — a
  stochastic upper bound, decreasing in n and M (Proposition II.1).

Each step is a discrete convolution (Eq. 19) followed by reflection of the
sub-zero mass into bin 0 and absorption of the above-B mass into bin M
(Eq. 20); FFT acceleration brings the per-step cost to O(M log M).  When
the resulting loss-rate bounds (Eqs. 23-24) stop tightening before the 20 %
relative-gap criterion is met, the number of bins is doubled and — per the
paper's footnote 3 — the current distributions are carried over to the
finer grid (old grid points are exactly representable, so bound semantics
survive refinement).

Stopping rules follow Section III verbatim: report the average of the
bounds; stop when the gap is below 20 % of the average, or report zero
loss when the upper bound falls below 1e-10.

There is one solve loop, :func:`batch_loss_rates`, which applies these
rules to any number of queues in lockstep; :meth:`FluidQueue.loss_rate`
is a batch of one.  The stepping kernel is *spectral*: per refinement
level the static increment vectors of every chain pair in a stack are
transformed once (:class:`_SpectralPlan`; a lone pair is a stack of
one), and each step advances the whole ``(K, 2, L)`` stack with one
rfft/irfft pair per sub-chunk.  Boundary reflection/absorption
(:func:`_advance`) stays in the spatial domain each step, so Eq. 20
semantics — and with them the Proposition II.1 bound ordering — are
untouched; only float round-off differs from the direct path (see
``SOLVER_VERSION``).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from repro.core.loss import expected_overflow, zero_buffer_loss_rate
from repro.core.results import LossRateResult, OccupancyBounds, SolverStats
from repro.core.source import CutoffFluidSource
from repro.core.validation import check_nonnegative, check_positive
from repro.core.workload import DiscretizedWorkload, WorkloadLaw

__all__ = [
    "SOLVER_VERSION",
    "DEFAULT_FFT_THRESHOLD_BINS",
    "SolverConfig",
    "FluidQueue",
    "solve_loss_rate",
    "batch_loss_rates",
]

SOLVER_VERSION = 3
"""Revision of the numeric stepping kernel.

Participates in every solve-cache fingerprint (see
:mod:`repro.core.fingerprint`), so persisted results from an older kernel
self-invalidate instead of aliasing.  Bump whenever a kernel change can
alter the float bit patterns of solver output.  History: 1 = per-chain
``scipy.signal.fftconvolve`` stepping; 2 = batched spectral kernel with
cached increment transforms; 3 = multi-task stacked spectral kernel
(:func:`batch_loss_rates`) — same-shape solves advance through one
``(tasks, 2, L)`` rfft/irfft pair per step.  The stacked path is
regression-tested bit-identical to the per-task path, but the stepping
implementation changed, so the version bump lets persisted entries
re-prove themselves instead of being trusted across the refactor.
"""

DEFAULT_FFT_THRESHOLD_BINS = 256
"""Measured crossover below which direct ``np.convolve`` beats the
spectral kernel (see ``benchmarks/results/ablation_fft_threshold.txt``).
The old per-call ``fftconvolve`` path paid plan/setup cost every step and
would have needed ~512 bins to win; caching the increment spectrum moves
the break-even down to ~256."""

FFT_STACK_BUDGET_BINS = 4096
"""Working-set budget for the stacked multi-task FFT (v3 kernel).

The stacked kernel advances up to ``FFT_STACK_BUDGET_BINS // bins`` tasks
(floor 4) in one rfft/irfft pair.  Measured on this class of sizes the
per-task win peaks near width 16 at 256 bins and shrinks as bins grow
(wide stacks at 2048+ bins overflow cache and lose to bandwidth), so the
cap scales inversely with the transform length.  The cap is a pure
performance knob: sub-chunking a stack cannot change any row's bits
(see ``tests/core/test_batched_kernel.py``)."""


def _fft_stack_width(bins: int) -> int:
    """Largest stack advanced through one FFT call at this bin count."""
    return max(4, FFT_STACK_BUDGET_BINS // max(1, bins))


@dataclass(frozen=True)
class SolverConfig:
    """Tunable knobs of the bounded solver.

    Attributes
    ----------
    initial_bins:
        Starting quantization level M (grid step ``d = B / M``).
    max_bins:
        Refinement ceiling; the solver gives up (``converged=False``) when
        the gap criterion is unmet at this resolution.
    relative_gap:
        Stop when ``upper - lower <= relative_gap * (upper + lower)/2``;
        the paper uses 0.2.
    negligible_loss:
        Report zero loss when the upper bound falls below this; the paper
        uses 1e-10.
    block_iterations:
        Number of convolution steps between convergence checks.
    max_iterations:
        Hard safety cap on total steps across all refinement levels.
    stall_relative_change:
        Both bounds moving by less than this relative amount over a block
        (while the gap criterion is unmet) triggers bin doubling.
    use_fft:
        Use FFT convolution (True, paper's recommendation) or direct
        convolution (False; exposed for the solver ablation benchmark).
    fft_threshold_bins:
        Bin count below which the solver uses direct convolution even
        when ``use_fft`` is True (FFT overhead loses at small sizes).
        Defaults to the measured crossover
        (:data:`DEFAULT_FFT_THRESHOLD_BINS`); 0 forces the spectral
        kernel at every size.
    """

    initial_bins: int = 128
    max_bins: int = 1 << 15
    relative_gap: float = 0.2
    negligible_loss: float = 1e-10
    block_iterations: int = 32
    max_iterations: int = 200_000
    stall_relative_change: float = 1e-4
    use_fft: bool = True
    fft_threshold_bins: int = DEFAULT_FFT_THRESHOLD_BINS

    def __post_init__(self) -> None:
        if self.initial_bins < 2:
            raise ValueError("initial_bins must be >= 2")
        if self.max_bins < self.initial_bins:
            raise ValueError("max_bins must be >= initial_bins")
        check_positive("relative_gap", self.relative_gap)
        check_nonnegative("negligible_loss", self.negligible_loss)
        if self.block_iterations < 1:
            raise ValueError("block_iterations must be >= 1")
        if self.max_iterations < self.block_iterations:
            raise ValueError("max_iterations must be >= block_iterations")
        check_positive("stall_relative_change", self.stall_relative_change)
        if self.fft_threshold_bins < 0:
            raise ValueError(
                f"fft_threshold_bins must be >= 0, got {self.fft_threshold_bins}"
            )


class _KernelCounters:
    """Mutable per-solve accumulators, shared across refinement levels."""

    __slots__ = ("transforms", "fft_seconds", "boundary_seconds", "levels", "batch_width")

    def __init__(self) -> None:
        self.transforms = 0
        self.fft_seconds = 0.0
        self.boundary_seconds = 0.0
        self.levels: list[list[int]] = []  # [bins, steps] in level visit order
        self.batch_width = 1  # widest stack this solve ever stepped in

    def charge(
        self,
        bins: int,
        steps: int,
        transforms: int,
        fft_seconds: float,
        boundary_seconds: float,
        width: int,
    ) -> None:
        """Charge one block of ``steps`` at ``bins`` and the work it took."""
        if not self.levels or self.levels[-1][0] != bins:
            self.levels.append([bins, 0])
        self.levels[-1][1] += steps
        self.transforms += transforms
        self.fft_seconds += fft_seconds
        self.boundary_seconds += boundary_seconds
        self.batch_width = max(self.batch_width, width)

    def stats(self) -> SolverStats:
        return SolverStats(
            transforms=self.transforms,
            fft_seconds=self.fft_seconds,
            boundary_seconds=self.boundary_seconds,
            steps_per_level=tuple((bins, steps) for bins, steps in self.levels),
            batch_width=self.batch_width,
        )


def _advance(
    states: np.ndarray, steps: int, convolve: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, float, float]:
    """Advance ``(..., 2, M+1)`` chain states ``steps`` iterations of Eqs. 19-20.

    ``convolve`` is Eq. 19: the linear convolution of each chain with its
    increment pmf, whose index k carries the occupancy value
    ``(k - M) * d``.  The fold below is Eq. 20: reflect the sub-zero mass
    into bin 0 and absorb the above-B mass into bin M; columns beyond
    ``3M`` hold only spectral round-off and are dropped.  ``states`` is
    reused as scratch.  Returns the new states and the seconds spent
    convolving and folding.
    """
    m = states.shape[-1] - 1
    n = 3 * m + 1
    scratch = np.empty_like(states)
    convolve_seconds = 0.0
    fold_seconds = 0.0
    for _ in range(steps):
        start = time.perf_counter()
        u = convolve(states)
        mid = time.perf_counter()
        new = scratch
        new[..., 0] = u[..., : m + 1].sum(axis=-1)  # reflect sub-zero mass
        new[..., 1:m] = u[..., m + 1 : 2 * m]
        new[..., m] = u[..., 2 * m : n].sum(axis=-1)  # absorb above-B mass
        # FFT round-off can leave tiny negatives; clip and renormalize.
        np.clip(new, 0.0, None, out=new)
        totals = new.sum(axis=-1)
        if not ((0.5 < totals) & (totals < 2.0)).all():  # pragma: no cover
            raise ArithmeticError(
                "occupancy pmf lost normalization; increments invalid?"
            )
        new /= totals[..., np.newaxis]
        states, scratch = new, states
        end = time.perf_counter()
        convolve_seconds += mid - start
        fold_seconds += end - mid
    return states, convolve_seconds, fold_seconds


class _SpectralPlan:
    """A stack of K chain pairs at one level and its cached spectral geometry.

    Pads the full linear-convolution length ``3M + 1`` to the next fast
    real-FFT size once, transforms the K static increment pairs once, and
    keeps the zero-padded ``(K, 2, L)`` input buffer alive across steps —
    so each step costs one forward and one inverse real transform per
    sub-chunk of at most :func:`_fft_stack_width` chains.  Real-FFT rows
    transform independently, so every row of the stacked result is
    bit-identical to the same chain stepped alone (K = 1): stacking and
    sub-chunking are purely throughput levers.

    Building the plan charges each chain an equal share of the build time
    to ``fft_seconds`` and, once per chain however often its level's stack
    is rebuilt, the two kernel transforms.  The chains keep their own
    state; the plan gathers it per block and scatters it back after.
    """

    def __init__(self, chains: Sequence["_BoundedChains"]) -> None:
        start = time.perf_counter()
        self.chains = list(chains)
        bins = chains[0].bins
        self.length = int(next_fast_len(3 * bins + 1, real=True))
        increments = np.stack([np.vstack([c.w_lower, c.w_upper]) for c in chains])
        self.kernel_spectrum = rfft(increments, n=self.length, axis=-1)
        self._width = bins + 1
        # Columns beyond _width stay zero forever: only the pmf region is
        # rewritten each step, so no per-step re-zeroing is needed.
        self._padded = np.zeros((len(chains), 2, self.length))
        self._stack_width = _fft_stack_width(bins)
        share = (time.perf_counter() - start) / len(chains)
        for chain in chains:
            chain.counters.fft_seconds += share
            if not chain.kernel_charged:
                chain.kernel_charged = True
                chain.counters.transforms += 2

    def _transform(self, block: slice) -> np.ndarray:
        spectrum = rfft(self._padded[block], axis=-1)
        spectrum *= self.kernel_spectrum[block]
        return irfft(spectrum, n=self.length, axis=-1)

    def convolve(self, states: np.ndarray) -> np.ndarray:
        """Linear convolution of every chain in the stack."""
        self._padded[..., : self._width] = states
        count = self._padded.shape[0]
        if count <= self._stack_width:
            return self._transform(slice(None))
        out = np.empty_like(self._padded)
        for start in range(0, count, self._stack_width):
            block = slice(start, start + self._stack_width)
            out[block] = self._transform(block)
        return out

    def holds(self, chains: Sequence["_BoundedChains"]) -> bool:
        """True when this plan stacks exactly these chains, in this order."""
        return len(chains) == len(self.chains) and all(
            ours is theirs for ours, theirs in zip(self.chains, chains)
        )

    def iterate(self, steps: int) -> None:
        """Advance every chain in the stack ``steps`` iterations of Eqs. 19-20."""
        states = np.stack([chains._state for chains in self.chains])
        states, fft_seconds, boundary_seconds = _advance(states, steps, self.convolve)
        width = len(self.chains)
        for chains, state in zip(self.chains, states):
            chains._state[...] = state
            chains.counters.charge(
                chains.bins, steps, 2 * steps,
                fft_seconds / width, boundary_seconds / width, width,
            )


class _BoundedChains:
    """The pair of discretized occupancy chains at one quantization level.

    Both chains live as the rows of one ``(2, M+1)`` state array (row 0 =
    lower chain, row 1 = upper chain), so a step is one convolution of
    both rows followed by the vectorized Eq. 20 fold of :func:`_advance`.
    Spectral levels step as a :class:`_SpectralPlan` of one.
    """

    def __init__(
        self,
        workload: WorkloadLaw,
        buffer_size: float,
        bins: int,
        use_fft: bool,
        fft_threshold_bins: int = DEFAULT_FFT_THRESHOLD_BINS,
        lower_pmf: np.ndarray | None = None,
        upper_pmf: np.ndarray | None = None,
        discretized: DiscretizedWorkload | None = None,
        counters: _KernelCounters | None = None,
    ) -> None:
        self.workload = workload
        self.buffer_size = buffer_size
        self.bins = bins
        self.use_fft = use_fft
        self.fft_threshold_bins = fft_threshold_bins
        self.step = buffer_size / bins
        self.grid = np.arange(bins + 1, dtype=np.float64) * self.step
        if discretized is None:
            discretized = DiscretizedWorkload.build(workload, self.step, bins)
        elif discretized.bins != bins:
            raise ValueError(
                f"discretized workload has {discretized.bins} bins, chains need {bins}"
            )
        self.discretized = discretized
        self.w_lower = discretized.w_lower
        self.w_upper = discretized.w_upper
        source = workload.source
        self.overflow = np.asarray(
            expected_overflow(source, workload.service_rate, buffer_size, self.grid)
        )
        self.work_per_interval = source.mean_rate * source.mean_interval
        self._state = np.zeros((2, bins + 1))
        if lower_pmf is None:
            self._state[0, 0] = 1.0  # start empty (Eq. 17)
        else:
            self._state[0] = lower_pmf
        if upper_pmf is None:
            self._state[1, -1] = 1.0  # start full (Eq. 17)
        else:
            self._state[1] = upper_pmf
        self._plan: _SpectralPlan | None = None  # built on first spectral step
        self.counters = counters if counters is not None else _KernelCounters()
        self.kernel_charged = False  # this level's kernel transforms counted

    @property
    def lower_pmf(self) -> np.ndarray:
        return self._state[0]

    @property
    def upper_pmf(self) -> np.ndarray:
        return self._state[1]

    @property
    def spectral(self) -> bool:
        """True when this level steps through the FFT kernel."""
        return self.use_fft and self.bins >= self.fft_threshold_bins

    def _convolve_direct(self, state: np.ndarray) -> np.ndarray:
        return np.vstack(
            [np.convolve(state[0], self.w_lower), np.convolve(state[1], self.w_upper)]
        )

    def iterate(self, steps: int) -> None:
        """Advance both chains ``steps`` iterations of Eqs. 19-20."""
        if steps <= 0:
            return
        if self.spectral:
            if self._plan is None:
                self._plan = _SpectralPlan([self])
            self._plan.iterate(steps)
            return
        self._state, fft_seconds, boundary_seconds = _advance(
            self._state, steps, self._convolve_direct
        )
        self.counters.charge(self.bins, steps, 0, fft_seconds, boundary_seconds, 1)

    def loss_bounds(self) -> tuple[float, float]:
        """Current loss-rate bounds (Eqs. 23-24)."""
        values = self._state @ self.overflow
        lower = float(values[0]) / self.work_per_interval
        upper = float(values[1]) / self.work_per_interval
        return lower, upper

    def result(
        self, iterations: int, converged: bool, negligible_loss: float
    ) -> LossRateResult:
        """The current bounds (Eqs. 23-24) as a solver answer."""
        lower, upper = self.loss_bounds()
        return LossRateResult(
            lower=lower, upper=upper, iterations=iterations, bins=self.bins,
            converged=converged, negligible=upper <= negligible_loss,
            stats=self.counters.stats(),
        )

    def refined(self) -> "_BoundedChains":
        """Double the bin count, carrying the current pmfs over (footnote 3).

        Old grid point ``j * d`` equals new grid point ``2j * d/2``, so the
        carried-over chains remain valid bounds on the finer grid.  The
        workload discretization is refined in place of being recomputed:
        only the new grid midpoints cost cdf evaluations.
        """
        lower = np.zeros(2 * self.bins + 1)
        upper = np.zeros(2 * self.bins + 1)
        lower[::2] = self._state[0]
        upper[::2] = self._state[1]
        return _BoundedChains(
            workload=self.workload,
            buffer_size=self.buffer_size,
            bins=2 * self.bins,
            use_fft=self.use_fft,
            fft_threshold_bins=self.fft_threshold_bins,
            lower_pmf=lower,
            upper_pmf=upper,
            discretized=self.discretized.refined(),
            counters=self.counters,
        )

    def snapshot(self, iterations: int) -> OccupancyBounds:
        """Freeze the current bound distributions (Fig. 2 data)."""
        return OccupancyBounds(
            grid=self.grid.copy(),
            lower_pmf=self._state[0].copy(),
            upper_pmf=self._state[1].copy(),
            iterations=iterations,
        )


@dataclass(frozen=True)
class FluidQueue:
    """Finite-buffer constant-rate fluid queue fed by a cutoff fluid source.

    Parameters
    ----------
    source:
        The modulated fluid input.
    service_rate:
        Constant service rate ``c`` (must differ from being dominated:
        loss is exactly zero when the peak rate does not exceed ``c``).
    buffer_size:
        Buffer capacity ``B`` in work units; ``B = 0`` selects the exact
        bufferless formula.

    Examples
    --------
    >>> import math
    >>> from repro.core.marginal import DiscreteMarginal
    >>> from repro.core.truncated_pareto import TruncatedPareto
    >>> from repro.core.source import CutoffFluidSource
    >>> source = CutoffFluidSource(
    ...     marginal=DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5]),
    ...     interarrival=TruncatedPareto(theta=0.1, alpha=1.4, cutoff=5.0),
    ... )
    >>> queue = FluidQueue(source=source, service_rate=1.25, buffer_size=1.0)
    >>> result = queue.loss_rate()
    >>> result.lower <= result.upper
    True
    """

    source: CutoffFluidSource
    service_rate: float
    buffer_size: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "service_rate", check_positive("service_rate", self.service_rate)
        )
        object.__setattr__(
            self, "buffer_size", check_nonnegative("buffer_size", self.buffer_size)
        )

    @property
    def utilization(self) -> float:
        """Offered load ``mean_rate / c``."""
        return self.source.mean_rate / self.service_rate

    @property
    def normalized_buffer(self) -> float:
        """Buffer size expressed in seconds of service (``B / c``)."""
        return self.buffer_size / self.service_rate

    @classmethod
    def from_normalized(
        cls, source: CutoffFluidSource, utilization: float, normalized_buffer: float
    ) -> "FluidQueue":
        """Build a queue from the paper's sweep coordinates.

        ``utilization`` fixes the service rate as ``mean_rate/utilization``;
        ``normalized_buffer`` (seconds) fixes ``B = normalized_buffer * c``.
        """
        utilization = check_positive("utilization", utilization)
        normalized_buffer = check_nonnegative("normalized_buffer", normalized_buffer)
        service_rate = source.mean_rate / utilization
        return cls(
            source=source,
            service_rate=service_rate,
            buffer_size=normalized_buffer * service_rate,
        )

    # ------------------------------------------------------------------ #
    # the solver proper
    # ------------------------------------------------------------------ #

    def loss_rate(self, config: SolverConfig | None = None) -> LossRateResult:
        """Compute bounded loss-rate estimates per Section II/III.

        Returns a :class:`~repro.core.results.LossRateResult`; consult
        ``result.converged`` before trusting ``result.estimate`` to meet the
        gap criterion.  This is :func:`batch_loss_rates` on a batch of one.
        """
        return batch_loss_rates([self], config)[0]

    def occupancy_bounds(
        self,
        checkpoints: Iterable[int],
        bins: int = 100,
        use_fft: bool = True,
        fft_threshold_bins: int = DEFAULT_FFT_THRESHOLD_BINS,
    ) -> list[OccupancyBounds]:
        """Bound distributions after given iteration counts (Fig. 2).

        ``checkpoints`` is an increasing sequence of iteration counts, e.g.
        ``(5, 10, 30)`` as in the paper; the bin count defaults to the
        paper's M = 100.
        """
        checkpoints = sorted(set(int(n) for n in checkpoints))
        if not checkpoints or checkpoints[0] < 0:
            raise ValueError("checkpoints must be non-negative iteration counts")
        if self.buffer_size <= 0.0:
            raise ValueError("occupancy bounds need a positive buffer")
        chains = self._chains(bins, use_fft, fft_threshold_bins)
        snapshots: list[OccupancyBounds] = []
        done = 0
        for target in checkpoints:
            chains.iterate(target - done)
            done = target
            snapshots.append(chains.snapshot(done))
        return snapshots

    def stationary_occupancy(
        self,
        config: SolverConfig | None = None,
        distribution_tolerance: float = 0.05,
    ) -> OccupancyBounds:
        """Stationary occupancy-bound distributions at arrival epochs.

        Runs the bounded recursion until the two chains agree in total
        variation within ``distribution_tolerance`` (refining the grid when
        progress stalls), then returns the pair of occupancy pmfs.  Useful
        for occupancy/delay percentiles and the full/empty (reset)
        probabilities behind the correlation-horizon argument.

        Note the criterion differs from :meth:`loss_rate`: loss bounds can
        agree (e.g. both negligible) long before the distributions
        themselves have converged, so this method tracks the distributions
        directly.
        """
        config = config or SolverConfig()
        check_positive("distribution_tolerance", distribution_tolerance)
        if self.buffer_size <= 0.0 or self.source.marginal.peak <= self.service_rate:
            raise ValueError(
                "stationary occupancy needs a positive buffer and a source "
                "that can exceed the service rate"
            )
        chains = self._chains(config.initial_bins, config.use_fft, config.fft_threshold_bins)

        def total_variation() -> float:
            return 0.5 * float(np.abs(chains.lower_pmf - chains.upper_pmf).sum())

        iterations = 0
        previous_distance: float | None = None
        while iterations < config.max_iterations:
            steps = min(config.block_iterations, config.max_iterations - iterations)
            chains.iterate(steps)
            iterations += steps
            distance = total_variation()
            if distance <= distribution_tolerance:
                break
            stalled = (
                previous_distance is not None
                and previous_distance - distance
                < config.stall_relative_change * max(previous_distance, 1e-12)
            )
            if stalled:
                if chains.bins * 2 > config.max_bins:
                    break
                chains = chains.refined()
                previous_distance = None
                continue
            previous_distance = distance
        return chains.snapshot(iterations)

    def _chains(self, bins: int, use_fft: bool, fft_threshold_bins: int) -> _BoundedChains:
        """Fresh bound chains for this queue: lower empty, upper full (Eq. 17)."""
        return _BoundedChains(
            workload=WorkloadLaw(source=self.source, service_rate=self.service_rate),
            buffer_size=self.buffer_size,
            bins=bins,
            use_fft=use_fft,
            fft_threshold_bins=fft_threshold_bins,
        )

    def _trivial_result(self, config: SolverConfig) -> LossRateResult | None:
        """Handle the analytically exact corner cases."""
        if self.source.marginal.peak <= self.service_rate:
            # The queue can never overflow (it never even fills).
            return LossRateResult(
                lower=0.0, upper=0.0, iterations=0, bins=0, converged=True, negligible=True
            )
        if self.buffer_size == 0.0:
            loss = zero_buffer_loss_rate(self.source, self.service_rate)
            return LossRateResult(
                lower=loss, upper=loss, iterations=0, bins=0,
                converged=True, negligible=loss <= config.negligible_loss,
            )
        return None


def solve_loss_rate(
    source: CutoffFluidSource,
    utilization: float,
    normalized_buffer: float,
    config: SolverConfig | None = None,
) -> LossRateResult:
    """One-call convenience wrapper used by the experiment sweeps.

    Builds the queue from the paper's sweep coordinates (utilization and
    normalized buffer in seconds) and runs the bounded solver.
    """
    queue = FluidQueue.from_normalized(
        source=source, utilization=utilization, normalized_buffer=normalized_buffer
    )
    return queue.loss_rate(config=config)


# ---------------------------------------------------------------------- #
# the solve loop (Section III), for a batch of one or many
# ---------------------------------------------------------------------- #


class _BatchMember:
    """One queue's mutable solve state inside :func:`batch_loss_rates`."""

    __slots__ = ("index", "chains", "previous")

    def __init__(self, index: int, chains: _BoundedChains) -> None:
        self.index = index
        self.chains = chains
        self.previous: tuple[float, float] | None = None


def _stalled(
    previous: tuple[float, float], current: tuple[float, float], config: SolverConfig
) -> bool:
    """True when both bounds have (relatively) stopped moving over a block."""
    (prev_lower, prev_upper) = previous
    (lower, upper) = current
    scale = max(upper, config.negligible_loss)
    moved = max(abs(lower - prev_lower), abs(upper - prev_upper)) / scale
    return moved < config.stall_relative_change


def _check_member(
    member: _BatchMember, iterations: int, config: SolverConfig
) -> LossRateResult | None:
    """Section III stopping rules for one member after a block.

    Negligible-loss exit, relative-gap exit, stall-triggered refinement
    (footnote 3) or give-up at ``max_bins``.  Returns the finished result,
    or None when the member stays active (possibly with refined chains).
    """
    chains = member.chains
    lower, upper = chains.loss_bounds()
    mid = 0.5 * (lower + upper)
    if upper <= config.negligible_loss or upper - lower <= config.relative_gap * mid:
        return chains.result(iterations, True, config.negligible_loss)
    if member.previous is None or not _stalled(member.previous, (lower, upper), config):
        member.previous = (lower, upper)
        return None
    if chains.bins * 2 > config.max_bins:
        return chains.result(iterations, False, config.negligible_loss)
    member.chains = chains.refined()
    member.previous = None
    return None


def batch_loss_rates(
    queues: Sequence[FluidQueue], config: SolverConfig | None = None
) -> list[LossRateResult]:
    """Solve queues per Section II/III, many at once through stacked kernels.

    This is the solver's only convergence loop; :meth:`FluidQueue.loss_rate`
    is a batch of one.  All queues share one ``config``, so their block
    schedules run in lockstep: each round every active member advances the
    same number of steps, members at the same refinement level (and past
    the FFT threshold) through one stacked ``(K, 2, L)`` rfft/irfft pair,
    members on the direct-convolution path one by one.  Convergence,
    stalling and grid refinement remain strictly per member, so every
    returned :class:`~repro.core.results.LossRateResult` is bit-identical
    to what a batch of one returns for that queue — batching changes
    throughput, never output.

    Results are returned in input order.
    """
    config = config or SolverConfig()
    queue_list = list(queues)
    results: list[LossRateResult | None] = [None] * len(queue_list)
    members: list[_BatchMember] = []
    for index, queue in enumerate(queue_list):
        trivial = queue._trivial_result(config)
        if trivial is not None:
            results[index] = trivial
            continue
        chains = queue._chains(
            config.initial_bins, config.use_fft, config.fft_threshold_bins
        )
        members.append(_BatchMember(index=index, chains=chains))
    iterations = 0
    plans: dict[int, _SpectralPlan] = {}
    while members and iterations < config.max_iterations:
        steps = min(config.block_iterations, config.max_iterations - iterations)
        by_level: dict[int, list[_BoundedChains]] = {}
        for member in members:
            if member.chains.spectral:
                by_level.setdefault(member.chains.bins, []).append(member.chains)
            else:
                member.chains.iterate(steps)
        for bins, level_chains in by_level.items():
            plan = plans.get(bins)
            if plan is None or not plan.holds(level_chains):
                plan = plans[bins] = _SpectralPlan(level_chains)
            plan.iterate(steps)
        plans = {bins: plan for bins, plan in plans.items() if bins in by_level}
        iterations += steps
        survivors: list[_BatchMember] = []
        for member in members:
            finished = _check_member(member, iterations, config)
            if finished is None:
                survivors.append(member)
            else:
                results[member.index] = finished
        members = survivors
    for member in members:  # iteration budget exhausted
        results[member.index] = member.chains.result(
            iterations, False, config.negligible_loss
        )
    return [result for result in results if result is not None]

"""Differential oracles: independent computations that must agree.

Each oracle reruns (part of) a scenario through a second, independent
numerical path and compares:

* :class:`SpectralDirectOracle` — the batched FFT stepping kernel against
  direct ``np.convolve`` stepping (identical mathematics, disjoint code
  paths; Eq. 19-20);
* :class:`BoundOrderingOracle` — Proposition II.1: ``lower <= upper`` and
  doubling the bin count at a matched iteration budget tightens (never
  widens) both bounds;
* :class:`MonteCarloOracle` — the solver's rigorous bracket against a
  batch-mean confidence band from the event-driven Monte Carlo simulator
  of Eq. 9 (:func:`~repro.queueing.fluid_sim.simulate_source_queue`);
* :class:`MarkovEquivalenceOracle` — Section IV's claim that a Markov
  (hyperexponential) model matching the correlation structure predicts
  the same loss, computed with the spectral MMFQ solver;
* :class:`BatchedSoloOracle` — the v3 stacked multi-task kernel at stack
  width K against the same tasks solved as batches of one; it promises
  bit-identical results, so the comparison is exact equality, not a
  tolerance;
* :class:`NetSimSolverOracle` — the solver bracket against confidence
  bands from the *network* simulator (:mod:`repro.netsim`) run on the
  scenario's one-queue topology: a completely independent event-driven
  code path that must reproduce the same queue.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.exec.task import SolveTask
from repro.verify.checks import CheckContext, CheckOutcome
from repro.verify.scenario import Scenario, netsim_single_queue

__all__ = [
    "BatchedSoloOracle",
    "BoundOrderingOracle",
    "MarkovEquivalenceOracle",
    "MonteCarloOracle",
    "NetSimSolverOracle",
    "SpectralDirectOracle",
]


def _has_loss_path(scenario: Scenario) -> bool:
    """True when the queue can actually lose work (peak above service)."""
    service_rate = scenario.source.mean_rate / scenario.utilization
    return scenario.source.marginal.peak > service_rate


class SpectralDirectOracle:
    """FFT stepping and direct-convolution stepping must agree.

    Both kernels are run with refinement disabled and a fixed iteration
    budget so they execute exactly the same number of Eq. 19-20 steps;
    the only difference left is float round-off, bounded far below the
    comparison tolerance.
    """

    name = "spectral_vs_direct"
    kind = "oracle"
    expensive = False

    def __init__(self, iterations: int = 256, rel_tol: float = 1e-5,
                 abs_tol: float = 1e-9) -> None:
        self.iterations = iterations
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol

    def applies(self, scenario: Scenario) -> bool:
        return _has_loss_path(scenario)

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        base = scenario.config
        fixed = replace(
            base,
            max_bins=base.initial_bins,  # no refinement: matched step counts
            relative_gap=1e-12,  # never converge early on the gap
            negligible_loss=0.0,  # never exit on the negligible path
            max_iterations=self.iterations,
            block_iterations=self.iterations,
        )
        spectral = ctx.solve_scenario(
            scenario, config=replace(fixed, use_fft=True, fft_threshold_bins=0)
        )
        direct = ctx.solve_scenario(scenario, config=replace(fixed, use_fft=False))
        scale = max(abs(spectral.lower), abs(spectral.upper), self.abs_tol)
        gap_lower = abs(spectral.lower - direct.lower)
        gap_upper = abs(spectral.upper - direct.upper)
        worst = max(gap_lower, gap_upper)
        if worst > self.abs_tol + self.rel_tol * scale:
            return CheckOutcome.fail(
                self.name,
                "spectral and direct kernels disagree beyond round-off",
                spectral_lower=spectral.lower,
                spectral_upper=spectral.upper,
                direct_lower=direct.lower,
                direct_upper=direct.upper,
                divergence=worst,
            )
        return CheckOutcome.ok(self.name, divergence=worst)


class BatchedSoloOracle:
    """A K-wide stack must reproduce batches of one *bit for bit*.

    Builds a small shape-homogeneous batch — the scenario's task plus
    buffer-scaled siblings sharing its solver configuration — solves it
    through the batched hook, solves every member alone (a batch of one)
    through the per-task hook, and requires exact equality of every
    result field.
    The batched kernel's contract is bit-identity (stacked real FFTs
    transform rows independently), so any nonzero difference is a bug,
    not round-off; the FFT threshold is forced to zero so the stacked
    spectral path genuinely engages at fuzz-sized grids.
    """

    name = "batched_vs_solo"
    kind = "oracle"
    expensive = False

    def __init__(
        self, iterations: int = 192, buffer_factors: tuple[float, ...] = (1.0, 1.25, 1.5)
    ) -> None:
        if len(buffer_factors) < 2:
            raise ValueError("buffer_factors needs >= 2 members to form a batch")
        self.iterations = iterations
        self.buffer_factors = buffer_factors

    def applies(self, scenario: Scenario) -> bool:
        return _has_loss_path(scenario) and scenario.normalized_buffer > 0.0

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        base = scenario.config
        fixed = replace(
            base,
            max_bins=base.initial_bins,  # matched budgets, as the kernel pair oracle
            relative_gap=1e-12,
            negligible_loss=0.0,
            max_iterations=self.iterations,
            block_iterations=self.iterations,
            use_fft=True,
            fft_threshold_bins=0,  # engage the stacked spectral path
        )
        buffers = [
            scenario.normalized_buffer * factor for factor in self.buffer_factors
        ]
        tasks = [
            SolveTask(
                source=scenario.source,
                utilization=scenario.utilization,
                normalized_buffer=buffer,
                config=fixed,
            )
            for buffer in buffers
        ]
        batched = ctx.solve_batch(tasks)
        if len(batched) != len(tasks):
            return CheckOutcome.fail(
                self.name,
                f"batched solve returned {len(batched)} results for {len(tasks)} tasks",
            )
        solo = [ctx.solve(task) for task in tasks]
        for position, (from_batch, from_solo) in enumerate(zip(batched, solo)):
            exact = (
                from_batch.lower == from_solo.lower
                and from_batch.upper == from_solo.upper
                and from_batch.iterations == from_solo.iterations
                and from_batch.bins == from_solo.bins
                and from_batch.converged == from_solo.converged
                and from_batch.negligible == from_solo.negligible
            )
            if not exact:
                return CheckOutcome.fail(
                    self.name,
                    "batched and solo solves differ (the stacked kernel "
                    "promises bit-identity)",
                    member=float(position),
                    normalized_buffer=buffers[position],
                    batched_lower=from_batch.lower,
                    batched_upper=from_batch.upper,
                    solo_lower=from_solo.lower,
                    solo_upper=from_solo.upper,
                )
        return CheckOutcome.ok(
            self.name,
            members=float(len(tasks)),
            lower=solo[0].lower,
            upper=solo[0].upper,
        )


class BoundOrderingOracle:
    """``lower <= upper`` always; refining the grid tightens both bounds.

    Proposition II.1 makes the floor/ceil chains monotone in the bin
    count at any matched iteration count: ``lower`` may only rise and
    ``upper`` may only fall when M doubles.  Violations mean the
    discretization or the boundary folding is biased.
    """

    name = "bound_ordering"
    kind = "oracle"
    expensive = False

    def __init__(self, iterations: int = 192, tolerance: float = 1e-9) -> None:
        self.iterations = iterations
        self.tolerance = tolerance

    def applies(self, scenario: Scenario) -> bool:
        return _has_loss_path(scenario)

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        base = scenario.config
        free = ctx.solve_scenario(scenario)
        if free.lower > free.upper + self.tolerance:
            return CheckOutcome.fail(
                self.name,
                "lower bound exceeds upper bound",
                lower=free.lower,
                upper=free.upper,
            )
        fixed = replace(
            base,
            max_bins=base.initial_bins,
            relative_gap=1e-12,
            negligible_loss=0.0,
            max_iterations=self.iterations,
            block_iterations=self.iterations,
        )
        coarse = ctx.solve_scenario(scenario, config=fixed)
        fine = ctx.solve_scenario(
            scenario,
            config=replace(
                fixed,
                initial_bins=2 * base.initial_bins,
                max_bins=2 * base.initial_bins,
            ),
        )
        scale = max(coarse.upper, self.tolerance)
        slack = self.tolerance + 1e-7 * scale
        if fine.lower < coarse.lower - slack or fine.upper > coarse.upper + slack:
            return CheckOutcome.fail(
                self.name,
                "grid refinement widened a bound (Prop. II.1 monotonicity)",
                coarse_lower=coarse.lower,
                coarse_upper=coarse.upper,
                fine_lower=fine.lower,
                fine_upper=fine.upper,
            )
        return CheckOutcome.ok(
            self.name,
            coarse_gap=coarse.upper - coarse.lower,
            fine_gap=fine.upper - fine.lower,
        )


class MonteCarloOracle:
    """The solver bracket must intersect a Monte Carlo confidence band.

    Runs ``batches`` independent replications of the Eq. 9 recursion
    (each with its own warmup), forms the batch-mean 99 % band, and
    requires ``[lower - slack, upper + slack]`` to overlap it.  Cases
    whose loss is too small to resolve by simulation are skipped.
    """

    name = "solver_vs_monte_carlo"
    kind = "oracle"
    expensive = True

    def __init__(
        self,
        batches: int = 6,
        intervals: int = 4000,
        warmup: int = 800,
        z_score: float = 2.58,
        min_loss: float = 1e-4,
        slack: float = 0.25,
    ) -> None:
        self.batches = batches
        self.intervals = intervals
        self.warmup = warmup
        self.z_score = z_score
        self.min_loss = min_loss
        self.slack = slack

    def applies(self, scenario: Scenario) -> bool:
        return _has_loss_path(scenario)

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        from repro.queueing.fluid_sim import simulate_source_queue

        result = ctx.solve_scenario(scenario)
        if result.upper < self.min_loss:
            return CheckOutcome.skip(
                self.name, f"loss below Monte Carlo resolution ({result.upper:.2e})"
            )
        service_rate = scenario.source.mean_rate / scenario.utilization
        buffer_size = scenario.normalized_buffer * service_rate
        rng = ctx.rng(scenario, salt=1)
        losses = np.array([
            simulate_source_queue(
                scenario.source,
                service_rate,
                buffer_size,
                intervals=self.intervals,
                rng=rng,
                warmup_intervals=self.warmup,
            ).loss_rate
            for _ in range(self.batches)
        ])
        mean = float(losses.mean())
        half_width = float(
            self.z_score * losses.std(ddof=1) / math.sqrt(self.batches)
        )
        band_low = mean - half_width
        band_high = mean + half_width
        lo = result.lower * (1.0 - self.slack) - self.min_loss
        hi = result.upper * (1.0 + self.slack) + self.min_loss
        if band_high < lo or band_low > hi:
            return CheckOutcome.fail(
                self.name,
                "Monte Carlo confidence band misses the solver bracket",
                mc_mean=mean,
                mc_half_width=half_width,
                solver_lower=result.lower,
                solver_upper=result.upper,
            )
        return CheckOutcome.ok(
            self.name,
            mc_mean=mean,
            solver_lower=result.lower,
            solver_upper=result.upper,
        )


class NetSimSolverOracle:
    """The network simulator must agree with the solver on one queue.

    Builds the scenario's queue as a one-node :mod:`repro.netsim`
    topology (:func:`~repro.verify.scenario.netsim_single_queue`), runs
    ``batches`` independent seeded replications through the
    ``simulate_network`` hook, forms the batch-mean 99 % confidence band
    of the observed loss rate and requires it to overlap the solver's
    ``[lower - slack, upper + slack]`` bracket.  The simulator clips the
    *same* fluid recursion continuously in time, so beyond Monte Carlo
    noise the two paths measure one quantity; cases whose loss is too
    small to resolve by simulation are skipped.
    """

    name = "netsim_vs_solver"
    kind = "oracle"
    expensive = True

    def __init__(
        self,
        batches: int = 5,
        horizon_epochs: int = 2500,
        warmup_epochs: int = 500,
        z_score: float = 2.58,
        min_loss: float = 1e-4,
        slack: float = 0.25,
    ) -> None:
        self.batches = batches
        self.horizon_epochs = horizon_epochs
        self.warmup_epochs = warmup_epochs
        self.z_score = z_score
        self.min_loss = min_loss
        self.slack = slack

    def applies(self, scenario: Scenario) -> bool:
        return _has_loss_path(scenario)

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        result = ctx.solve_scenario(scenario)
        if result.upper < self.min_loss:
            return CheckOutcome.skip(
                self.name, f"loss below netsim resolution ({result.upper:.2e})"
            )
        topology = netsim_single_queue(scenario)
        mean_epoch = scenario.source.mean_interval
        duration = self.horizon_epochs * mean_epoch
        warmup = self.warmup_epochs * mean_epoch
        seeds = ctx.rng(scenario, salt=3).integers(0, 1 << 62, size=self.batches)
        losses = np.array([
            ctx.simulate_network(
                topology, duration=duration, warmup=warmup, seed=int(seed)
            ).node_stats["queue"].loss_rate
            for seed in seeds
        ])
        mean = float(losses.mean())
        half_width = float(
            self.z_score * losses.std(ddof=1) / math.sqrt(self.batches)
        )
        band_low = mean - half_width
        band_high = mean + half_width
        lo = result.lower * (1.0 - self.slack) - self.min_loss
        hi = result.upper * (1.0 + self.slack) + self.min_loss
        if band_high < lo or band_low > hi:
            return CheckOutcome.fail(
                self.name,
                "network-simulator confidence band misses the solver bracket",
                netsim_mean=mean,
                netsim_half_width=half_width,
                solver_lower=result.lower,
                solver_upper=result.upper,
            )
        return CheckOutcome.ok(
            self.name,
            netsim_mean=mean,
            solver_lower=result.lower,
            solver_upper=result.upper,
        )


class MarkovEquivalenceOracle:
    """A correlation-matched Markov model predicts the same loss (Section IV).

    Fits a hyperexponential to the interarrival ccdf, expands the renewal
    source into a CTMC and solves the resulting MMFQ with the independent
    Anick-Mitra-Sondhi spectral method.  The interval law is approximate,
    so agreement is judged on the order of magnitude: the two predictions
    must stay within ``max_log10_ratio`` decades.
    """

    name = "solver_vs_markov"
    kind = "oracle"
    expensive = True

    def __init__(
        self,
        phases: int = 10,
        max_levels: int = 6,
        min_loss: float = 1e-5,
        max_log10_ratio: float = 1.0,
    ) -> None:
        self.phases = phases
        self.max_levels = max_levels
        self.min_loss = min_loss
        self.max_log10_ratio = max_log10_ratio

    def applies(self, scenario: Scenario) -> bool:
        law = scenario.source.interarrival
        # The NNLS ccdf fit needs a few decades of usable tail and a
        # finite span; extreme-alpha and atom-dominated cases are out of
        # the comparator's faithful range, not model bugs.
        return (
            _has_loss_path(scenario)
            and law.cutoff != math.inf
            and law.cutoff >= 4.0 * law.theta
            and 1.15 <= law.alpha <= 1.9
            and scenario.utilization <= 0.95
        )

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        from repro.queueing.markov import fit_hyperexponential, renewal_markov_source
        from repro.queueing.mmfq import mmfq_loss_rate

        result = ctx.solve_scenario(scenario)
        if not result.converged or result.estimate < self.min_loss:
            return CheckOutcome.skip(
                self.name, "reference loss unconverged or below comparison floor"
            )
        marginal = scenario.source.marginal.rebinned(self.max_levels)
        fit = fit_hyperexponential(scenario.source.interarrival, phases=self.phases)
        model = renewal_markov_source(marginal, fit)
        service_rate = scenario.source.mean_rate / scenario.utilization
        buffer_size = scenario.normalized_buffer * service_rate
        markov_loss = mmfq_loss_rate(model, service_rate, buffer_size)
        ratio = math.log10(max(markov_loss, 1e-300) / result.estimate)
        if abs(ratio) > self.max_log10_ratio:
            return CheckOutcome.fail(
                self.name,
                "Markov comparator disagrees beyond "
                f"{self.max_log10_ratio:g} decades",
                markov_loss=markov_loss,
                solver_estimate=result.estimate,
                log10_ratio=ratio,
            )
        return CheckOutcome.ok(
            self.name,
            markov_loss=markov_loss,
            solver_estimate=result.estimate,
            log10_ratio=ratio,
        )

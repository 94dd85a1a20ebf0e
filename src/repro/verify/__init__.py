"""Differential & metamorphic verification harness.

The paper's central claims are *relations* — the bounds bracket the true
loss rate (Prop. II.1), correlation beyond the horizon is irrelevant
(Eq. 26), ``H = (3 - alpha)/2`` ties the model's knobs together — so this
package checks them as machine-verified properties over randomly
generated scenarios instead of hand-picked points: a seeded stratified
:class:`~repro.verify.scenario.ScenarioGenerator`, differential
:mod:`oracles <repro.verify.oracles>` (spectral vs direct kernel, batched
stack width K vs 1, bound ordering under refinement, solver vs
Monte Carlo, solver vs Markov, solver vs the :mod:`repro.netsim` network
simulator),
:mod:`metamorphic relations <repro.verify.metamorphic>` (monotonicity,
relabeling invariance, shuffle-beyond-horizon invariance, Hurst
recovery), the :mod:`matched-moment model comparison
<repro.verify.matched>` (five competing families — fGn, FARIMA, on/off,
M/G/∞, MMPP — realized at matched marginal + H and judged against the
solver bracket, both as a fuzz oracle and as the ``repro compare``
grid), plus JSON failure-corpus persistence with greedy case
minimization and the ``repro fuzz`` CLI entry point.
"""

from repro.verify.checks import CheckContext, CheckOutcome, VerifyCheck
from repro.verify.corpus import FailureCorpus, FailureRecord, minimize_scenario
from repro.verify.matched import (
    FAMILY_TRAITS,
    ComparisonReport,
    ComparisonRow,
    FamilyTraits,
    MatchedModelsOracle,
    matched_rate_source,
    matched_single_queue,
    run_model_comparison,
    sample_family_trace,
)
from repro.verify.metamorphic import (
    BufferMonotonicityRelation,
    HurstRecoveryRelation,
    RateRelabelInvarianceRelation,
    ServiceMonotonicityRelation,
    ShuffleInvarianceRelation,
)
from repro.verify.oracles import (
    BatchedSoloOracle,
    BoundOrderingOracle,
    MarkovEquivalenceOracle,
    MonteCarloOracle,
    NetSimSolverOracle,
    SpectralDirectOracle,
)
from repro.verify.runner import (
    CaseResult,
    FuzzReport,
    default_checks,
    run_corpus,
    run_fuzz,
)
from repro.verify.scenario import (
    FAMILIES,
    FUZZ_SOLVER_CONFIG,
    MATCHED_FAMILIES,
    REGIMES,
    Scenario,
    ScenarioGenerator,
    netsim_single_queue,
)

__all__ = [
    "FAMILIES",
    "FAMILY_TRAITS",
    "FUZZ_SOLVER_CONFIG",
    "MATCHED_FAMILIES",
    "REGIMES",
    "BatchedSoloOracle",
    "BoundOrderingOracle",
    "BufferMonotonicityRelation",
    "CaseResult",
    "CheckContext",
    "CheckOutcome",
    "ComparisonReport",
    "ComparisonRow",
    "FailureCorpus",
    "FailureRecord",
    "FamilyTraits",
    "FuzzReport",
    "HurstRecoveryRelation",
    "MarkovEquivalenceOracle",
    "MatchedModelsOracle",
    "MonteCarloOracle",
    "NetSimSolverOracle",
    "RateRelabelInvarianceRelation",
    "Scenario",
    "ScenarioGenerator",
    "ServiceMonotonicityRelation",
    "ShuffleInvarianceRelation",
    "SpectralDirectOracle",
    "VerifyCheck",
    "default_checks",
    "matched_rate_source",
    "matched_single_queue",
    "minimize_scenario",
    "netsim_single_queue",
    "run_corpus",
    "run_fuzz",
    "run_model_comparison",
    "sample_family_trace",
]

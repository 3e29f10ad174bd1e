"""Oracle-efficient adversarial contextual bandits.

A relaxation-based learner that needs only K+1 offline-optimization oracle
calls per round, together with the environments, baselines and verification
harness used to benchmark it at desk scale.
"""

from .core import (
    ActionDistribution,
    ActionIndex,
    Context,
    EstimatedCost,
    HistoryRecord,
    build_estimate,
    draw_estimator_coin,
)
from .policies import (
    PolicyClass,
    ValueOracle,
    best_policy_loss,
    random_policy_class,
)
from .learner import (
    LearnerConfig,
    RelaxationLearner,
    in_tuning_regime,
    oracle_scores,
    play_distribution,
    sample_future,
    tune_scale,
)
from .environments import (
    ContextDistribution,
    ContextSequence,
    CostSchedule,
    make_adversary,
)
from .baselines import Exp4Learner, UniformLearner
from .harness import (
    ConfigError,
    ExperimentResult,
    RunResult,
    bound_curve,
    emit_outputs,
    run_experiment,
    theoretical_bound,
    validate_config,
)
from .verify import (
    AdmissibilityResult,
    OracleScores,
    admissibility_check,
    brute_force_minimax,
    inner_sup_value,
    inner_sup_values,
    rademacher_bound_check,
    relaxation_value,
    simplex_grid,
    sup_by_vertex_enumeration,
    unbiasedness_check,
    water_fill,
)

__all__ = [
    "ActionDistribution",
    "ActionIndex",
    "AdmissibilityResult",
    "ConfigError",
    "Context",
    "ContextDistribution",
    "ContextSequence",
    "CostSchedule",
    "EstimatedCost",
    "Exp4Learner",
    "ExperimentResult",
    "HistoryRecord",
    "LearnerConfig",
    "OracleScores",
    "PolicyClass",
    "RelaxationLearner",
    "RunResult",
    "UniformLearner",
    "ValueOracle",
    "admissibility_check",
    "best_policy_loss",
    "bound_curve",
    "brute_force_minimax",
    "build_estimate",
    "draw_estimator_coin",
    "emit_outputs",
    "in_tuning_regime",
    "inner_sup_value",
    "inner_sup_values",
    "make_adversary",
    "oracle_scores",
    "play_distribution",
    "rademacher_bound_check",
    "random_policy_class",
    "relaxation_value",
    "run_experiment",
    "sample_future",
    "simplex_grid",
    "sup_by_vertex_enumeration",
    "theoretical_bound",
    "tune_scale",
    "unbiasedness_check",
    "validate_config",
    "water_fill",
]

__version__ = "0.1.0"

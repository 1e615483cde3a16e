"""Two-alternative forced-choice evaluation with a sequential stopping rule.

Simulate annotator populations judging request pairs from two generative
models, or replay recorded crowd votes, and measure the labelling effort
each labelling strategy needs before one model is provably better.
"""

from .decision import (
    DecisionConfig,
    DecisionState,
    Verdict,
    first_crossing,
    hoeffding_tolerance,
    min_n_for_decision,
    update,
)
from .eval_model import (
    RequestSet,
    WorkerPool,
    sample_capabilities,
    sample_difficulties,
    selection_probability,
)
from .replay import (
    AnnotationSet,
    DataFormatError,
    fleiss_kappa,
    parse_annotations,
    replay_experiment,
    replay_iteration,
)
from .simulator import (
    ExperimentConfig,
    ExperimentSummary,
    IterationResult,
    bootstrap_ci,
    run_experiment,
    run_iteration,
)
from .strategies import Strategy, StrategyKind, majority_vote

__version__ = "0.1.0"

__all__ = [
    "AnnotationSet",
    "DataFormatError",
    "DecisionConfig",
    "DecisionState",
    "ExperimentConfig",
    "ExperimentSummary",
    "IterationResult",
    "RequestSet",
    "Strategy",
    "StrategyKind",
    "Verdict",
    "WorkerPool",
    "bootstrap_ci",
    "first_crossing",
    "fleiss_kappa",
    "hoeffding_tolerance",
    "majority_vote",
    "min_n_for_decision",
    "parse_annotations",
    "replay_experiment",
    "replay_iteration",
    "run_experiment",
    "run_iteration",
    "sample_capabilities",
    "sample_difficulties",
    "selection_probability",
    "update",
]

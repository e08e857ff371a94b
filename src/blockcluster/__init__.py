"""Profile-likelihood biclustering of data matrices.

Simultaneously clusters the rows and columns of a real matrix under a
block model by maximizing a convex-rate criterion with greedy label
sweeps, with synthetic block-model generation, evaluation diagnostics,
and a Monte-Carlo simulation harness.
"""

from .criterion import (
    BlockStats,
    RateFunction,
    block_stats,
    criterion_value,
    move_delta,
    rate_function,
)
from .errors import DomainError, PartitionError
from .evaluation import (
    ConfusionPair,
    TailBoundInput,
    confusion,
    gaussian_tail_bound,
    misclassification,
    population_criterion,
    population_gap_check,
    residual_supnorm,
)
from .model import (
    BlockModelSpec,
    DataMatrix,
    LabelAssignment,
    design_spec,
    generate,
)
from .optimizer import FitConfig, FitResult, fit, kmeans_init
from .simharness import SimPlan, SimRecord, aggregate, parse_plan_file, run_plan

__version__ = "0.1.0"

__all__ = [
    "BlockModelSpec", "BlockStats", "ConfusionPair", "DataMatrix",
    "DomainError", "FitConfig", "FitResult", "LabelAssignment",
    "PartitionError", "RateFunction", "SimPlan", "SimRecord",
    "TailBoundInput", "aggregate", "block_stats", "confusion",
    "criterion_value", "design_spec", "fit", "gaussian_tail_bound",
    "generate", "kmeans_init", "misclassification",
    "move_delta", "parse_plan_file", "population_criterion",
    "population_gap_check", "rate_function", "residual_supnorm", "run_plan",
]

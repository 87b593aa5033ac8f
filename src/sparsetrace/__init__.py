"""Tracing attacks, fingerprinting identities, and privacy audits for hard
stochastic convex optimization instances."""

from .distributions import (
    BetaPrior,
    MeanVector,
    QuadratureRule,
    SignRows,
    SparsePopulation,
    pmf,
    prior_quadrature,
    sample_matrix,
    sample_prior,
)
from .harness import ExperimentConfig, main, parse_cli, run
from .learners import Dataset, LearnerConfig, measure_excess_risk, train
from .oracles import (
    IdentityCheckResult,
    check_beta_abs_moment,
    check_card_moments,
    verify_scaling_identity,
    verify_sparse_identity,
)
from .problems import (
    ParameterPoint,
    ProblemSpec,
    excess_risk,
    loss,
    support_argmax,
)
from .rng import substream
from .tracers import (
    ThresholdPolicy,
    TraceReport,
    TracerSpec,
    calibrate_threshold,
    half_trace_value,
    null_quantile,
    run_trace_trial,
    score_batch,
    sparse_tracer,
    trace_value_contribution,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Finite-state toolkit for Markov chains with Wasserstein kernel ambiguity:
robust large-deviations rates, worst-case transition kernels, stationary
envelopes, and Monte Carlo validation of the computed rates."""

from .chain_core import (
    BallSet,
    ChainSpec,
    Dist,
    Kernel,
    MetricSpace,
    ValidationError,
    Violation,
    empirical_measure,
    k_step_kernel,
    validate_chain,
)
from .divergence import (
    DivergenceModel,
    DivergenceResult,
    Variant,
    beta,
    beta_chain,
    chain_joint,
    entropy_model,
    rel_entropy,
)
from .montecarlo import RateEstimate, RateVerdict, SimPlan, compare_rates, simulate_paths
from .rate_solver import (
    RateReport,
    Residuals,
    minimal_rate,
    nonvacuous,
    rate_at,
    sharpness_check,
    tail_rate,
    worst_case_kernel,
)
from .set_chain import (
    ConditionReport,
    Envelope,
    cesaro,
    check_conditions,
    envelope,
    robust_functional_bound,
    stationary,
)
from .transport import DualPotential, TransportPlan, W1Result, ball_membership, w1

__version__ = "0.1.0"

__all__ = [
    "BallSet",
    "ChainSpec",
    "ConditionReport",
    "Dist",
    "DivergenceModel",
    "DivergenceResult",
    "DualPotential",
    "Envelope",
    "Kernel",
    "MetricSpace",
    "RateEstimate",
    "RateReport",
    "RateVerdict",
    "Residuals",
    "SimPlan",
    "TransportPlan",
    "ValidationError",
    "Variant",
    "Violation",
    "W1Result",
    "ball_membership",
    "beta",
    "beta_chain",
    "cesaro",
    "chain_joint",
    "check_conditions",
    "compare_rates",
    "empirical_measure",
    "entropy_model",
    "envelope",
    "k_step_kernel",
    "minimal_rate",
    "nonvacuous",
    "rate_at",
    "rel_entropy",
    "robust_functional_bound",
    "sharpness_check",
    "simulate_paths",
    "stationary",
    "tail_rate",
    "validate_chain",
    "w1",
    "worst_case_kernel",
]

"""Balanced continuous-time optimization flow for low-rank adapters.

The package provides the closed-form update field for adapter factor pairs
(gradient matching on the effective weight, gauge-fixed to the balanced
manifold through a symmetric Sylvester equation), fixed-step Euler/RK2/RK4
discretizations of the flow and baseline factor optimizers on one explicit
Runge–Kutta engine, benchmark problems with exact gradients and certified
sensing operators, and the diagnostics used to verify convergence rates,
discretization orders, balance preservation, and dimension-independent
feature scaling.
"""

from .core import (
    DEFAULT_EPS,
    FactorGrams,
    FieldEval,
    LoRAFactors,
    Objective,
    effective_weight,
    field_eval,
    gram_a,
    gram_b,
)
from .diagnostics import (
    DefectBelowNoiseFloor,
    FeatureScalingResult,
    OrderReport,
    PhiReport,
    ReferenceDiverged,
    ScalingDiverged,
    estimate_order,
    feature_scaling_experiment,
    phi_decompose,
)
from .linalg import (
    DegenerateSpectrum,
    NoConvergence,
    NonFiniteState,
    NotPositiveDefinite,
    thin_svd,
)
from .metrics import (
    RateFit,
    WindowTooShort,
    ZeroGradient,
    balance_defect,
    eps_ratio,
    rate_fit,
    sensing_eps_certificate,
)
from .problems import (
    InvalidDelta,
    RegressionProblem,
    SensingProblem,
    aligned_zero_b_init,
    balanced_init,
    make_regression_instance,
    make_rip_sensing,
    make_sensing_instance,
    perturbed_balanced_init,
    quadratic_objective,
    regression_objective,
    sensing_objective,
    zero_b_init,
)
from .solvers import (
    DIVERGENCE_ERRORS,
    DIVERGENCE_LOSS,
    Scheme,
    SolverConfig,
    TrajectoryLog,
    TrajectoryRow,
    run_stack,
    run_trajectory,
    step,
)

__version__ = "0.1.0"

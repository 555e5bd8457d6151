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
    flow_rhs_full,
    gram_a,
    gram_b,
)
from .diagnostics import (
    DefectBelowNoiseFloor,
    FeatureScalingResult,
    OrderReport,
    PhiReport,
    ReferenceDiverged,
    estimate_order,
    feature_scaling_experiment,
    phi_decompose_classical,
    phi_decompose_rk4,
)
from .linalg import (
    DegenerateSpectrum,
    NoConvergence,
    NonFiniteState,
    NotPositiveDefinite,
    SymEig,
    cholesky_solve,
    sym_eig,
    sylvester_spd,
    thin_svd,
)
from .metrics import (
    NonPositiveGap,
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
    classical_gd_step,
    full_ft_step,
    lorapro_direction,
    lorapro_step,
    ode_euler_step,
    ode_rk2_step,
    ode_rk4_step,
    riemannian_step,
    run_trajectory,
)

__version__ = "0.1.0"

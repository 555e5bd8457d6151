"""Trajectory-level measurements: discretization order, one-step output
decompositions, and the feature-scaling sweep over model dimension.

Order estimation is Richardson-style: integrate to a fixed horizon at each
step size, measure the terminal defect against a fine-step RK4 reference,
and read the order off consecutive defect ratios. The output decomposition
splits the one-step change of the model output ``(B A) s`` into the
per-stage contributions of the integrator, whose scaling with the model
dimension n is what "stable feature learning" constrains. Its stage fields
come from the same Runge–Kutta engine that ``solvers`` steps with, so the
decomposed step is the solver's step up to the rounding of the stage sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_EPS, LoRAFactors, Objective, effective_weight
from .metrics import (  # noqa: F401  (re-exported measurement surface)
    NonPositiveGap,
    RateFit,
    WindowTooShort,
    ZeroGradient,
    balance_defect,
    eps_ratio,
    rate_fit,
    sensing_eps_certificate,
)
from .problems import RegressionProblem, make_regression_instance, regression_objective, zero_b_init
from .solvers import DIVERGENCE_ERRORS, Scheme, _method_for, _rk_stages, _step_for

__all__ = [
    "ReferenceDiverged",
    "DefectBelowNoiseFloor",
    "OrderReport",
    "PhiReport",
    "FeatureScalingResult",
    "estimate_order",
    "reference_trajectory",
    "phi_decompose_rk4",
    "phi_decompose_classical",
    "feature_scaling_experiment",
    "balance_defect",
    "eps_ratio",
    "rate_fit",
    "sensing_eps_certificate",
]

# Terminal defects below this are indistinguishable from round-off.
DEFECT_FLOOR = 1e-12


class ReferenceDiverged(Exception):
    """The fine-step reference trajectory diverged; no baseline exists."""


class DefectBelowNoiseFloor(Exception):
    """A terminal defect sits at round-off level; the order is unmeasurable."""


@dataclass(frozen=True)
class OrderReport:
    scheme: Scheme
    step_sizes: tuple[float, ...]
    defects: tuple[float, ...]
    observed_order: float


def _integrate_weight(factors, w_pt, objective, scheme, h, steps, eps):
    """Integrate without logging and return the terminal effective weight."""
    step = _step_for(scheme)
    state = factors
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            state = step(state, w_pt, objective, h, eps)
            if not np.all(np.isfinite(state.a)) or not np.all(np.isfinite(state.b)):
                raise ArithmeticError(f"{scheme.value} diverged at h = {h}")
    return effective_weight(w_pt, state)


def reference_trajectory(
    factors: LoRAFactors,
    w_pt: np.ndarray,
    objective: Objective,
    horizon: float,
    h_ref: float,
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """Terminal weight of the fine-step RK4 reference run.

    Raises ReferenceDiverged when the run blows up: a non-finite state or
    any of ``solvers.DIVERGENCE_ERRORS``.
    """
    steps = max(1, round(horizon / h_ref))
    try:
        return _integrate_weight(factors, w_pt, objective, Scheme.ODE_RK4, h_ref, steps, eps)
    except (ArithmeticError, *DIVERGENCE_ERRORS) as err:
        raise ReferenceDiverged(str(err)) from err


def estimate_order(
    factors: LoRAFactors,
    w_pt: np.ndarray,
    objective: Objective,
    scheme: Scheme,
    horizon: float,
    h_list,
    eps: float = DEFAULT_EPS,
    reference: np.ndarray | None = None,
) -> OrderReport:
    """Measure the observed convergence order of a flow discretization.

    ``h_list`` must be descending; step counts are rounded to cover the
    horizon. The reference is RK4 at min(h_list)/100 and may be passed in
    to share it across schemes.
    """
    h_list = [float(h) for h in h_list]
    if sorted(h_list, reverse=True) != h_list:
        raise ValueError("h_list must be descending")
    if reference is None:
        reference = reference_trajectory(
            factors, w_pt, objective, horizon, min(h_list) / 100.0, eps
        )
    defects = []
    for h in h_list:
        steps = max(1, round(horizon / h))
        w_end = _integrate_weight(factors, w_pt, objective, scheme, h, steps, eps)
        defects.append(float(np.linalg.norm(w_end - reference)))
    if min(defects) < DEFECT_FLOOR:
        raise DefectBelowNoiseFloor(
            f"defect {min(defects):.3e} below {DEFECT_FLOOR:g}; order unmeasurable"
        )
    orders = [
        math.log(defects[i] / defects[i + 1]) / math.log(h_list[i] / h_list[i + 1])
        for i in range(len(h_list) - 1)
    ]
    return OrderReport(
        scheme=scheme,
        step_sizes=tuple(h_list),
        defects=tuple(defects),
        observed_order=float(np.mean(orders)),
    )


@dataclass(frozen=True)
class PhiReport:
    """Per-stage contributions to the one-step output change (B A) s.

    ``component_norms`` lists, stage by stage, the update-side contribution
    ``w_k F_B^(k) A_t s`` followed by the carry-side ``w_k B_t F_A^(k) s``
    (8 entries for RK4, 2 for one-stage schemes). The components plus the
    quadratic cross term reproduce the output change exactly;
    ``sum_check_residual`` reports the reconstruction error.
    """

    n: int
    component_norms: tuple[float, ...]
    cross_norm: float
    sum_check_residual: float


def _phi_step(factors, problem, scheme, h, eps):
    """Decompose one step of a factor scheme on the regression problem.

    Returns the report and the post-step state. Stage k contributes its
    update side ``b_k h F_B^(k) A_t s`` and its carry side
    ``b_k h B_t F_A^(k) s``, with ``b_k`` the scheme's tableau weights.
    """
    objective = regression_objective(problem)
    tableau, stages = _rk_stages(scheme, factors, problem.w_pt, objective, h, eps)
    weights = [b / tableau.denominator for b in tableau.weights]
    s = problem.s
    a_s = factors.a @ s
    components = []
    for w, (f_a, f_b) in zip(weights, stages):
        components.append(w * h * (f_b @ a_s))
        components.append(w * h * (factors.b @ (f_a @ s)))
    da = h * sum(w * f_a for w, (f_a, _) in zip(weights, stages))
    db = h * sum(w * f_b for w, (_, f_b) in zip(weights, stages))
    cross = db @ (da @ s)
    after = factors.move(da, db, 1.0)
    change = (after.delta() - factors.delta()) @ s
    residual = np.linalg.norm(sum(components) + cross - change)
    scale = max(1.0, float(np.linalg.norm(change)))
    report = PhiReport(
        n=factors.a.shape[1],
        component_norms=tuple(float(np.linalg.norm(c)) for c in components),
        cross_norm=float(np.linalg.norm(cross)),
        sum_check_residual=float(residual / scale),
    )
    return report, after


def phi_decompose_rk4(
    factors: LoRAFactors,
    problem: RegressionProblem,
    h: float,
    eps: float = DEFAULT_EPS,
) -> PhiReport:
    """Decompose one RK4 step on the regression problem into its 8 output
    contributions (stage weights h/6, h/3, h/3, h/6)."""
    return _phi_step(factors, problem, Scheme.ODE_RK4, h, eps)[0]


def phi_decompose_classical(
    factors: LoRAFactors, problem: RegressionProblem, h: float
) -> PhiReport:
    """Two-component decomposition of one plain factor-descent step."""
    return _phi_step(factors, problem, Scheme.CLASSICAL_GD, h, DEFAULT_EPS)[0]


@dataclass
class FeatureScalingResult:
    """Raw per-step component norms and their dimension-scaling fits."""

    scheme: Scheme
    rows: list[tuple[int, int, int, int, float]]  # (n, seed, step, component, norm)
    medians: dict[tuple[int, int], float]         # (n, component) -> median norm
    slopes: dict[int, float | None]               # component -> log-log slope vs n


def feature_scaling_experiment(
    n_list,
    steps: int,
    h: float,
    seeds,
    scheme: Scheme = Scheme.ODE_RK4,
    rank: int = 4,
    eps: float = DEFAULT_EPS,
) -> FeatureScalingResult:
    """Track output-contribution norms across model dimensions.

    For each n, builds a square regression instance and a zero-B start whose
    A rows keep a fixed overlap with the feature direction, runs ``steps``
    iterations of the scheme, and logs every stage contribution. The
    log-log slope of the median norm against n is the dimension-scaling
    exponent; flat slopes mean a dimension-independent step size trains at
    constant output speed. Components with identically-vanishing medians
    get a ``None`` slope.

    Under this aligned start both schemes are dimension-free by
    construction: plain factor descent's iterates never involve n, so its
    slopes are exactly 0. The experiment shows the flow's flatness, not the
    contrast between schemes; that needs the generic start
    (``zero_b_init`` without ``align``).
    """
    if scheme not in (Scheme.ODE_RK4, Scheme.CLASSICAL_GD):
        raise ValueError("feature scaling is measured for ODE_RK4 and CLASSICAL_GD")
    if isinstance(seeds, int):
        seeds = range(seeds)
    rows: list[tuple[int, int, int, int, float]] = []
    for n in n_list:
        for seed in seeds:
            problem = make_regression_instance(n, n, seed)
            # independent stream for the start factors (same seed would make
            # the first A row collide with the feature vector draw)
            state = zero_b_init(n, n, rank, np.random.SeedSequence([seed, 1]), align=problem.s)
            for step_idx in range(steps):
                report, state = _phi_step(state, problem, scheme, h, eps)
                if not all(np.isfinite(report.component_norms)):
                    raise ArithmeticError(
                        f"{scheme.value} diverged at n = {n}, seed = {seed}, step = {step_idx}"
                    )
                for comp, norm in enumerate(report.component_norms):
                    rows.append((int(n), int(seed), step_idx, comp, norm))
    n_components = 2 * len(_method_for(scheme)[0].weights)
    medians: dict[tuple[int, int], float] = {}
    for n in n_list:
        for comp in range(n_components):
            vals = [r[4] for r in rows if r[0] == n and r[3] == comp]
            medians[(int(n), comp)] = float(np.median(vals))
    slopes: dict[int, float | None] = {}
    for comp in range(n_components):
        series = [medians[(int(n), comp)] for n in n_list]
        if len(n_list) < 2 or min(series) <= 1e-12:
            slopes[comp] = None
            continue
        slopes[comp] = float(
            np.polyfit(np.log(np.asarray(n_list, dtype=float)), np.log(series), 1)[0]
        )
    return FeatureScalingResult(scheme=scheme, rows=rows, medians=medians, slopes=slopes)

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
from .problems import (
    RegressionProblem,
    aligned_zero_b_init,
    make_regression_instance,
    regression_objective,
)
from .solvers import DIVERGENCE_ERRORS, Scheme, _rk_stages, _step_for

__all__ = [
    "ReferenceDiverged",
    "DefectBelowNoiseFloor",
    "ScalingDiverged",
    "OrderReport",
    "PhiReport",
    "FeatureScalingResult",
    "estimate_order",
    "reference_trajectory",
    "phi_decompose_rk4",
    "phi_decompose_classical",
    "feature_scaling_experiment",
]

# Terminal defects below this are indistinguishable from round-off.
DEFECT_FLOOR = 1e-12
# The adapter rank of the feature-scaling experiment.
FEATURE_SCALING_RANK = 4


class ReferenceDiverged(Exception):
    """The fine-step reference trajectory diverged; no baseline exists."""


class DefectBelowNoiseFloor(Exception):
    """A terminal defect sits at round-off level; the order is unmeasurable."""


class ScalingDiverged(Exception):
    """A scheme blew up during the feature-scaling sweep; no slopes exist."""


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

    Raises ReferenceDiverged when the run blows up, that is on any of
    ``solvers.DIVERGENCE_ERRORS`` (a non-finite state among them).
    """
    steps = max(1, round(horizon / h_ref))
    try:
        return _integrate_weight(factors, w_pt, objective, Scheme.ODE_RK4, h_ref, steps, eps)
    except DIVERGENCE_ERRORS as err:
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
    ``sum_check_residual`` reports the reconstruction error, relative to
    max(1, ||change||). The output change is taken in factor form,
    ``B' (A' s) - B (A s)``, so the check forms no m x n product.
    """

    component_norms: tuple[float, ...]
    sum_check_residual: float


def _phi_step(factors, problem, objective, scheme, h, eps):
    """Decompose one step of a factor scheme on the regression problem.

    Returns the report and the post-step state. Stage k contributes its
    update side ``b_k h F_B^(k) A_t s`` and its carry side
    ``b_k h B_t F_A^(k) s``, with ``b_k`` the scheme's tableau weights.
    Every product is a factor times a vector or an r-row matrix, so a step
    costs O((m + n) r) beyond the stage fields; the sum check compares with
    the output change ``B' (A' s) - B (A s)`` in factor form. ``objective``
    is the problem's regression objective; it caches the offset
    ``W_pt s - y``, so a caller that reuses it forms the offset once.
    """
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
    change = after.b @ (after.a @ s) - factors.b @ a_s
    residual = np.linalg.norm(sum(components) + cross - change)
    scale = max(1.0, float(np.linalg.norm(change)))
    report = PhiReport(
        component_norms=tuple(float(np.linalg.norm(c)) for c in components),
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
    objective = regression_objective(problem)
    return _phi_step(factors, problem, objective, Scheme.ODE_RK4, h, eps)[0]


def phi_decompose_classical(
    factors: LoRAFactors, problem: RegressionProblem, h: float
) -> PhiReport:
    """Two-component decomposition of one plain factor-descent step."""
    objective = regression_objective(problem)
    return _phi_step(factors, problem, objective, Scheme.CLASSICAL_GD, h, DEFAULT_EPS)[0]


@dataclass
class FeatureScalingResult:
    """Raw per-step component norms and their dimension-scaling fits."""

    rows: list[tuple[int, int, int, int, float]]  # (n, seed, step, component, norm)
    medians: dict[tuple[int, int], float]         # (n, component) -> median norm
    slopes: dict[int, float | None]               # component -> log-log slope vs n


def _scaling_rows(scheme, problem, objective, start, seed, steps, h):
    """Rows ``(n, seed, step, component, norm)`` of ``steps`` decomposed steps."""
    n, rows, state = problem.s.shape[0], [], start
    for step_idx in range(steps):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                report, state = _phi_step(state, problem, objective, scheme, h, DEFAULT_EPS)
            if not all(np.isfinite(report.component_norms)):
                raise FloatingPointError("non-finite output component")
        except DIVERGENCE_ERRORS as err:
            raise ScalingDiverged(
                f"{scheme.value} diverged at n = {n}, seed = {seed}, "
                f"step = {step_idx}: {err}"
            ) from err
        rows += [(n, int(seed), step_idx, comp, norm)
                 for comp, norm in enumerate(report.component_norms)]
    return rows


def _scaling_fit(rows, n_list) -> FeatureScalingResult:
    """Median norm per (n, component), in one pass, and its log-log slope against n."""
    groups: dict[tuple[int, int], list[float]] = {}
    for n, _, _, comp, norm in rows:
        groups.setdefault((n, comp), []).append(norm)
    medians = {key: float(np.median(norms)) for key, norms in groups.items()}
    log_n = np.log(np.asarray(n_list, dtype=float))
    slopes: dict[int, float | None] = {}
    for comp in sorted({comp for _, comp in medians}):
        series = [medians[(int(n), comp)] for n in n_list]
        fits = len(n_list) >= 2 and min(series) > 1e-12
        slopes[comp] = float(np.polyfit(log_n, np.log(series), 1)[0]) if fits else None
    return FeatureScalingResult(rows=rows, medians=medians, slopes=slopes)


def feature_scaling_experiment(n_list, steps: int, h: float, seeds) -> dict:
    """Output-contribution norms across model dimensions for the RK4 flow and
    plain factor descent: ``{ODE_RK4: result, CLASSICAL_GD: result}``.

    Each ``(n, seed)`` square regression instance, its objective and its
    rank-``FEATURE_SCALING_RANK`` zero-B start (A rows at a fixed overlap
    with the feature) are built once, and ``steps`` iterations of each
    scheme run from them, logging every stage contribution; only building
    touches m x n data. ``seeds`` is a count or a list. A component's slope
    is the log-log slope of its median norm against n (``None`` when the
    medians vanish); flat slopes mean one step size trains every width at
    the same output speed.

    Under this aligned start both schemes are dimension-free by
    construction (factor descent's iterates never involve n, so its slopes
    are exactly 0); the contrast needs ``zero_b_init`` without ``align``.

    Raises ScalingDiverged when a step meets one of
    ``solvers.DIVERGENCE_ERRORS`` or yields a non-finite component; factor
    descent's is raised only once the flow has run every instance, as if
    each scheme ran alone.
    """
    seeds = range(seeds) if isinstance(seeds, int) else seeds
    rows = {Scheme.ODE_RK4: [], Scheme.CLASSICAL_GD: []}
    descent_diverged = None
    for n in n_list:
        for seed in seeds:
            problem = make_regression_instance(n, n, seed)
            start = aligned_zero_b_init(problem, FEATURE_SCALING_RANK, seed)
            instance = (problem, regression_objective(problem), start, seed, steps, h)
            rows[Scheme.ODE_RK4] += _scaling_rows(Scheme.ODE_RK4, *instance)
            try:
                if descent_diverged is None:
                    rows[Scheme.CLASSICAL_GD] += _scaling_rows(Scheme.CLASSICAL_GD, *instance)
            except ScalingDiverged as err:
                descent_diverged = err
    if descent_diverged is not None:
        raise descent_diverged
    return {scheme: _scaling_fit(found, n_list) for scheme, found in rows.items()}

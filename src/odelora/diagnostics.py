"""Trajectory-level measurements: discretization order, one-step output
decompositions, and the feature-scaling sweep over model dimension.

``estimate_order`` is Richardson-style: it integrates each flow stepper to
a fixed horizon at each step size, measures the terminal defect against one
fine-step RK4 reference that it integrates itself, and reads the order off
consecutive defect ratios. ``phi_decompose`` splits the one-step change of
the model output ``(B A) s`` into the per-stage contributions of any factor
scheme, whose scaling with the model dimension n is what "stable feature
learning" constrains. It takes one step of the same Runge–Kutta engine
that ``solvers`` steps with, so the decomposed step is the solver's step,
and like that engine it takes a stacked state: on a ``RegressionStack``,
slice j on instance j, with each value a (k,) array.

``feature_scaling_experiment`` runs the seeds of one dimension n as one
stack per scheme. It keeps each instance's feature and offset
``W_pt s - y``, and frees the instance's dense ``W_pt`` before the next is
built, so one dense ``W_pt`` is alive at a time; the stack holds
O(k (m + n) r) floats, below one ``W_pt`` while k r is well under n. When
a stacked step fails, the seeds run again alone, each from its start, as
cells do in ``solvers.run_stack``, so every row and error is the one each
seed gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_EPS, LoRAFactors, Objective, effective_weight
from .linalg import NonFiniteState
from .problems import (
    RegressionStack,
    aligned_zero_b_init,
    make_regression_instance,
    regression_objective,
)
from .solvers import (DIVERGENCE_ERRORS, Scheme, _ALONE, _METHODS, _require_base_weight,
                      _rk_step, _step_for)

__all__ = [
    "ReferenceDiverged",
    "DefectBelowNoiseFloor",
    "ScalingDiverged",
    "OrderReport",
    "PhiReport",
    "FeatureScalingResult",
    "estimate_order",
    "phi_decompose",
    "feature_scaling_experiment",
]

# Terminal defects below this are indistinguishable from round-off.
DEFECT_FLOOR = 1e-12
# The adapter rank of the feature-scaling experiment.
FEATURE_SCALING_RANK = 4
# The flow steppers an order study measures, in the order it measures them.
FLOW_SCHEMES = (Scheme.ODE_EULER, Scheme.ODE_RK2, Scheme.ODE_RK4)


class ReferenceDiverged(Exception):
    """The fine-step reference trajectory diverged; no baseline exists."""


class DefectBelowNoiseFloor(Exception):
    """A terminal defect sits at round-off level; the order is unmeasurable."""


class ScalingDiverged(Exception):
    """A scheme blew up during the feature-scaling sweep; no slopes exist."""


@dataclass(frozen=True)
class OrderReport:
    step_sizes: tuple[float, ...]
    defects: tuple[float, ...]
    observed_order: float


def _integrate_weight(factors, objective, scheme, h, horizon, eps):
    """Integrate to ``horizon`` without logging, in ``horizon / h`` steps
    rounded (at least one), and return the terminal effective weight."""
    step = _step_for(scheme)
    state = factors
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max(1, round(horizon / h))):
            state = step(state, objective, h, eps)
    return effective_weight(objective.w_pt, state)


def estimate_order(
    factors: LoRAFactors,
    objective: Objective,
    horizon: float,
    h_list,
    eps: float = DEFAULT_EPS,
) -> dict[Scheme, OrderReport]:
    """Observed convergence order of each of ``FLOW_SCHEMES``, keyed in
    that order.

    ``h_list`` must hold at least two strictly descending step sizes.
    Every scheme is measured against one RK4 reference run at
    min(h_list)/100. Raises ReferenceDiverged when the reference meets one
    of ``solvers.DIVERGENCE_ERRORS``, and DefectBelowNoiseFloor when a
    scheme's smallest defect sits at round-off; the reference is checked
    first, then each scheme in turn. An objective with no base weight raises
    TypeError before any step.
    """
    h_list = [float(h) for h in h_list]
    if len(h_list) < 2 or any(h <= h_next for h, h_next in zip(h_list, h_list[1:])):
        raise ValueError("h_list must hold at least two strictly descending step sizes")
    _require_base_weight(objective)
    try:
        reference = _integrate_weight(
            factors, objective, Scheme.ODE_RK4, min(h_list) / 100.0, horizon, eps
        )
    except DIVERGENCE_ERRORS as err:
        raise ReferenceDiverged(str(err)) from err
    reports = {}
    for scheme in FLOW_SCHEMES:
        defects = []
        for h in h_list:
            w_end = _integrate_weight(factors, objective, scheme, h, horizon, eps)
            defects.append(float(np.linalg.norm(w_end - reference)))
        if min(defects) < DEFECT_FLOOR:
            raise DefectBelowNoiseFloor(
                f"defect {min(defects):.3e} below {DEFECT_FLOOR:g}; order unmeasurable"
            )
        orders = [
            math.log(defects[i] / defects[i + 1]) / math.log(h_list[i] / h_list[i + 1])
            for i in range(len(h_list) - 1)
        ]
        reports[scheme] = OrderReport(tuple(h_list), tuple(defects), float(np.mean(orders)))
    return reports


@dataclass(frozen=True)
class PhiReport:
    """Per-stage contributions to the one-step output change (B A) s.

    ``component_norms`` lists, stage by stage, the update-side contribution
    ``w_k F_B^(k) A_t s`` followed by the carry-side ``w_k B_t F_A^(k) s``
    (8 entries for RK4, 2 for one-stage schemes). The components plus the
    quadratic cross term reproduce the output change exactly;
    ``sum_check_residual`` reports the reconstruction error, relative to
    max(1, ||change||). The output change is taken in factor form,
    ``B' (A' s) - B (A s)``, so the check forms no m x n product. At a
    stacked state each entry and the residual are (k,) arrays, one value
    per slice.
    """

    component_norms: tuple[float, ...]
    sum_check_residual: float


def phi_decompose(
    factors: LoRAFactors,
    objective: Objective,
    scheme: Scheme,
    h: float,
    eps: float = DEFAULT_EPS,
) -> tuple[PhiReport, LoRAFactors]:
    """Decompose one step of a factor scheme on a regression objective.

    Returns the report and the solver's own post-step state. Stage k
    contributes its update side ``b_k h F_B^(k) A_t s`` and its carry side
    ``b_k h B_t F_A^(k) s``, with ``b_k`` the scheme's tableau weights
    (h/6, h/3, h/3, h/6 for RK4); the cross term ``(B' - B) ((A' - A) s)``
    comes from the step's increments. The problem is ``objective.problem``.
    Every product is a factor times a vector or an r-row matrix, so a step
    costs O((m + n) r) beyond the stage fields; the sum check compares with
    the output change ``B' (A' s) - B (A s)`` in factor form. The objective
    caches the offset ``W_pt s - y``, so a caller that reuses it forms the
    offset once.

    A stacked state on a ``RegressionStack`` of as many instances steps as
    one, slice j on instance j: the report holds (k,) arrays, and slice j's
    values and post-step state are what that slice gives alone.
    """
    problem = objective.problem
    after, stages = _rk_step(_ALONE[scheme], factors, objective, h, eps)
    tableau = _METHODS[scheme][0]
    weights = [b / tableau.denominator for b in tableau.weights]
    s = problem.s[..., :, None]
    a_s = factors.a @ s
    components = []
    for w, (f_a, f_b) in zip(weights, stages):
        components.append(w * h * (f_b @ a_s))
        components.append(w * h * (factors.b @ (f_a @ s)))
    cross = (after.b - factors.b) @ ((after.a - factors.a) @ s)
    change = after.b @ (after.a @ s) - factors.b @ a_s

    def norm(x):
        """Each slice's column norm, from the dot product np.linalg.norm takes."""
        return np.sqrt((x.mT @ x)[..., 0, 0])

    error = sum(components) + cross - change
    report = PhiReport(
        component_norms=tuple(norm(c) for c in components),
        sum_check_residual=norm(error) / np.fmax(1.0, norm(change)),
    )
    return report, after


@dataclass
class FeatureScalingResult:
    """Raw per-step component norms and their dimension-scaling fits."""

    rows: list[tuple[int, int, int, int, float]]  # (n, seed, step, component, norm)
    medians: dict[tuple[int, int], float]         # (n, component) -> median norm
    slopes: dict[int, float | None]               # component -> log-log slope vs n


def _seed_stack(n: int, seeds):
    """The objective of the ``(n, seed)`` regression instances, stacked in
    seed order, and their starts as one stack. Each instance's dense
    ``W_pt`` is freed once its offset is formed, so one is alive at a time."""
    features, offsets, a, b = [], [], [], []
    for seed in seeds:
        problem = make_regression_instance(n, n, seed)
        start = aligned_zero_b_init(problem, FEATURE_SCALING_RANK, seed)
        features.append(problem.s)
        offsets.append(problem.w_pt @ problem.s - problem.y)
        a.append(start.a)
        b.append(start.b)
        del problem, start
    stack = RegressionStack(np.array(features), np.array(offsets))
    return regression_objective(stack), LoRAFactors(np.array(a), np.array(b))


def _scaling_rows(scheme, objective, start, n, seeds, steps, h):
    """Rows ``(n, seed, step, component, norm)`` of ``steps`` decomposed steps
    of each slice of ``start`` (slice j on seed j; an unstacked start is one
    seed), seed-major, and the failure ``(seed, step, error)`` of the first
    seed that meets one of ``solvers.DIVERGENCE_ERRORS`` or a non-finite
    component, at its first such step, or None.

    The stack steps as one. A stacked step that fails raises for every
    slice, and a stacked kernel's message lists every slice's values, so the
    seeds then run again alone, unstacked, in the order given and each from
    its start: the first that fails gives the failure, and with none the
    rows are theirs.
    """
    norms, state = [], start  # per step, per seed, the component norms
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(steps):
                report, state = phi_decompose(state, objective, scheme, h)
                comps = report.component_norms
                if not np.isfinite(comps).all():
                    raise NonFiniteState("non-finite output component")
                norms.append(np.reshape(comps, (len(comps), -1)).T.tolist())
    except DIVERGENCE_ERRORS as err:
        if not start.stacked:
            return [], (seeds[0], len(norms), err)
        rows = []
        for j, seed in enumerate(seeds):
            found, failure = _scaling_rows(
                scheme, regression_objective(objective.problem.take(j)), start.take(j), n,
                [seed], steps, h)
            if failure is not None:
                return [], failure
            rows += found
        return rows, None
    rows = [(n, int(seed), step_idx, comp, norm)
            for j, seed in enumerate(seeds)
            for step_idx, per_seed in enumerate(norms)
            for comp, norm in enumerate(per_seed[j])]
    return rows, None


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

    Each ``(n, seed)`` square regression instance is built once, and its
    rank-``FEATURE_SCALING_RANK`` zero-B start (A rows at a fixed overlap
    with the feature) with it. ``seeds`` is a count or a list. The seeds of
    one n run as one stack per scheme, ``steps`` iterations from their
    starts, logging every stage contribution; its rows are seed-major, then
    in step order. The stack keeps each instance's feature and offset
    ``W_pt s - y`` (a ``RegressionStack``), not its dense ``W_pt``, which is
    freed before the next instance is built: one dense ``W_pt`` is alive at
    a time, and the stack holds O(k (m + n) r) floats for k seeds, below one
    ``W_pt`` while k r is well under n. A component's slope is the log-log
    slope of its median norm against n (``None`` when the medians vanish);
    flat slopes mean one step size trains every width at the same output
    speed.

    Under this aligned start both schemes are dimension-free by
    construction (factor descent's iterates never involve n, so its slopes
    are exactly 0); the contrast needs ``zero_b_init`` without ``align``.

    Raises ScalingDiverged when a step meets one of
    ``solvers.DIVERGENCE_ERRORS`` or yields a non-finite component, naming
    the first ``(n, seed)`` that fails, in n order and then in the order of
    ``seeds``, and that seed's first failing step, as if each instance ran
    alone. The flow's error wins: factor descent's is raised only once the
    flow has run every instance, and is kept until then as a fresh error,
    without a traceback or a cause.
    """
    seeds = range(seeds) if isinstance(seeds, int) else seeds
    rows = {Scheme.ODE_RK4: [], Scheme.CLASSICAL_GD: []}
    descent_diverged = None
    for n in n_list:
        objective, start = _seed_stack(n, seeds)
        found, failure = _scaling_rows(Scheme.ODE_RK4, objective, start, n, seeds, steps, h)
        if failure is not None:
            raise _diverged(Scheme.ODE_RK4, n, *failure) from failure[-1]
        rows[Scheme.ODE_RK4] += found
        if descent_diverged is None:
            found, failure = _scaling_rows(Scheme.CLASSICAL_GD, objective, start, n, seeds,
                                           steps, h)
            if failure is None:
                rows[Scheme.CLASSICAL_GD] += found
            else:
                descent_diverged = _diverged(Scheme.CLASSICAL_GD, n, *failure)
    if descent_diverged is not None:
        raise descent_diverged
    return {scheme: _scaling_fit(found, n_list) for scheme, found in rows.items()}


def _diverged(scheme, n, seed, step_idx, err) -> ScalingDiverged:
    return ScalingDiverged(
        f"{scheme.value} diverged at n = {n}, seed = {seed}, step = {step_idx}: {err}"
    )

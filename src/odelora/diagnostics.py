"""Trajectory-level measurements: discretization order, one-step output
decompositions, and the feature-scaling sweep over model dimension.

``estimate_order`` is Richardson-style: it integrates the three flow
steppers, as one stack, to a fixed horizon at each step size, measures each
terminal defect against one fine-step RK4 reference that it integrates
itself, and reads the order off consecutive defect ratios.
``phi_decompose`` splits the one-step change of the model output
``(B A) s`` into the per-stage contributions of any factor scheme, whose
scaling with the model dimension n is what "stable feature learning"
constrains. It takes one step of the same Runge–Kutta engine that
``solvers`` steps with, so the decomposed step is the solver's step, and
like that engine it takes a stacked state: on a ``RegressionStack``, slice
j on instance j, with each value a (k,) array.

``feature_scaling_experiment`` runs each scheme over every dimension n in
turn, the seeds of one n as one stack, kept from the flow's pass for
factor descent's. A stack keeps each instance's feature and offset
``W_pt s - y``, drawn in row blocks without forming the dense ``W_pt``
(``problems.make_regression_stack``). When a stacked step fails, the seeds
run again alone, each from its start, so every row and error is the one
each seed gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_EPS, LoRAFactors, Objective, effective_weight, slice_norms
from .linalg import NonFiniteState
from .problems import (
    RegressionObjective,
    aligned_zero_b_init,
    make_regression_stack,
    regression_objective,
)
from .solvers import (DIVERGENCE_ERRORS, DIVERGENCE_LOSS, Scheme, _METHODS,
                      _require_base_weight, _require_eps, _require_step, _rk_step)

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
# The flow steppers an order study measures, in the order it reports them.
FLOW_SCHEMES = (Scheme.ODE_EULER, Scheme.ODE_RK2, Scheme.ODE_RK4)
# The same flows in stack order (``solvers._METHODS``), as one stack steps them.
_FLOW_STACK = tuple(scheme for scheme in _METHODS if scheme in FLOW_SCHEMES)


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


def _integrate_weight(factors, objective, schemes, h, horizon, eps):
    """Step ``factors``, whose slices run ``schemes`` (``solvers._rk_step``),
    to ``horizon`` without logging, in ``horizon / h`` steps rounded, and
    return the terminal effective weight. A stacked state steps every slice
    at ``h``, held as a (k, 1, 1) column, since a mixed stack slices h by
    prefix."""
    state = factors
    step_h = np.full((factors.a.shape[0], 1, 1), h) if factors.stacked else h
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(round(horizon / h)):
            state = _rk_step(schemes, state, objective, step_h, eps)[0]
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

    ``h_list`` must hold at least two strictly descending step sizes, each
    dividing ``horizon`` (``horizon / h`` a positive integer to 1e-9
    relative), so that every run ends at the reference's time, and ``eps``
    must be nonnegative and finite; ValueError otherwise, before any step.
    Every scheme is measured against one RK4 reference run at
    min(h_list)/100, stepped alone. At each h the three flows step as one
    stack (``solvers._rk_step``), in the order RK4, RK2, Euler, and each
    slice's terminal weight is the one ``solvers.step`` gives it alone.
    Raises ReferenceDiverged when the reference meets one of
    ``solvers.DIVERGENCE_ERRORS``, with the kernel's message, or ends past
    ``solvers.DIVERGENCE_LOSS``, and DefectBelowNoiseFloor when a scheme's
    smallest defect sits at round-off; the reference is checked first, then
    each scheme in turn. An objective with no base weight raises TypeError
    before any step.
    """
    h_list = [float(h) for h in h_list]
    if len(h_list) < 2 or any(h <= h_next for h, h_next in zip(h_list, h_list[1:])):
        raise ValueError("h_list must hold at least two strictly descending step sizes")
    for h in h_list:
        steps = horizon / h if h > 0 else 0.0
        if not (1 <= steps < math.inf and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ValueError(f"h = {h} does not divide the horizon {horizon}")
    _require_eps(eps)
    _require_base_weight(objective)
    try:
        reference = _integrate_weight(factors, objective, (Scheme.ODE_RK4,),
                                      min(h_list) / 100.0, horizon, eps)
    except DIVERGENCE_ERRORS as err:
        raise ReferenceDiverged(str(err)) from err
    if not (loss := objective.loss(reference)) <= DIVERGENCE_LOSS:
        raise ReferenceDiverged(f"reference loss {loss:.3e} exceeds {DIVERGENCE_LOSS:g}")
    flows = LoRAFactors(*(np.broadcast_to(x, (len(_FLOW_STACK), *x.shape))
                          for x in (factors.a, factors.b)))
    defects_of = {scheme: [] for scheme in _FLOW_STACK}
    for h in h_list:
        w_end = _integrate_weight(flows, objective, _FLOW_STACK, h, horizon, eps)
        for scheme, w in zip(_FLOW_STACK, w_end):
            defects_of[scheme].append(float(np.linalg.norm(w - reference)))
    reports = {}
    for scheme in FLOW_SCHEMES:
        defects = defects_of[scheme]
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
    values and post-step state are what that slice gives alone. Any other
    objective than a ``RegressionObjective``, or a scheme not a ``Scheme``,
    raises TypeError; FULL_FT, or an h or eps out of range, ValueError.
    """
    if not isinstance(objective, RegressionObjective):
        raise TypeError(f"phi_decompose needs a RegressionObjective, "
                        f"got {type(objective).__name__}")
    _require_step(scheme, h)
    if scheme is Scheme.FULL_FT:
        raise ValueError("phi_decompose needs a factor scheme, got full_ft")
    _require_eps(eps)
    after, stages = _rk_step((scheme,), factors, objective, h, eps)
    tableau = _METHODS[scheme][0]
    weights = [b / tableau.denominator for b in tableau.weights]
    s = objective.problem.s[..., :, None]
    a_s = factors.a @ s
    components = []
    for w, (f_a, f_b) in zip(weights, stages):
        components.append(w * h * (f_b @ a_s))
        components.append(w * h * (factors.b @ (f_a @ s)))
    cross = (after.b - factors.b) @ ((after.a - factors.a) @ s)
    change = after.b @ (after.a @ s) - factors.b @ a_s
    error = sum(components) + cross - change
    report = PhiReport(
        component_norms=tuple(slice_norms(c) for c in components),
        sum_check_residual=slice_norms(error) / np.fmax(1.0, slice_norms(change)),
    )
    return report, after


@dataclass
class FeatureScalingResult:
    """Raw per-step component norms and their dimension-scaling fits."""

    rows: list[tuple[int, int, int, int, float]]  # (n, seed, step, component, norm)
    slopes: dict[int, float | None]               # component -> log-log slope vs n


def _seed_stack(n: int, seeds):
    """The objective of the ``(n, seed)`` square regression instances,
    stacked in seed order (``make_regression_stack``, which forms no
    ``W_pt``), and their aligned starts as one stack."""
    stack = make_regression_stack(n, n, seeds)
    starts = [aligned_zero_b_init(s, n, FEATURE_SCALING_RANK, seed)
              for s, seed in zip(stack.s, seeds)]
    return regression_objective(stack), LoRAFactors(np.array([start.a for start in starts]),
                                                     np.array([start.b for start in starts]))


def _scaling_rows(scheme, objective, start, n, seeds, steps, h):
    """Rows ``(n, seed, step, component, norm)`` of ``steps`` decomposed steps
    of each slice of ``start`` (slice j on seed j; an unstacked start is one
    seed), seed-major.

    The stack steps as one. An unstacked seed that meets one of
    ``solvers.DIVERGENCE_ERRORS`` or a non-finite component raises
    ScalingDiverged from that error, naming its first failing step. A
    stacked step that fails raises for every slice, and a stacked kernel's
    message lists every slice's values, so the seeds then run again alone,
    unstacked, in the order given and each from its start: the rows are
    theirs, and the first that fails raises.
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
            raise ScalingDiverged(f"{scheme.value} diverged at n = {n}, seed = {seeds[0]}, "
                                  f"step = {len(norms)}: {err}") from err
        return [row for j, seed in enumerate(seeds)
                for row in _scaling_rows(scheme, regression_objective(objective.problem.take(j)),
                                         start.take(j), n, [seed], steps, h)]
    return [(n, int(seed), step_idx, comp, norm)
            for j, seed in enumerate(seeds)
            for step_idx, per_seed in enumerate(norms)
            for comp, norm in enumerate(per_seed[j])]


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
    return FeatureScalingResult(rows=rows, slopes=slopes)


def feature_scaling_experiment(n_list, steps: int, h: float, seeds) -> dict:
    """Output-contribution norms across model dimensions for the RK4 flow and
    plain factor descent: ``{ODE_RK4: result, CLASSICAL_GD: result}``.

    Each ``(n, seed)`` square regression instance is built once, and its
    rank-``FEATURE_SCALING_RANK`` zero-B start (A rows at a fixed overlap
    with the feature) with it. ``seeds`` is a count or a list. Each scheme
    runs over every n in turn, RK4 first, the seeds of one n as one stack,
    ``steps`` iterations from their starts, logging every stage
    contribution; the rows of one n are seed-major, then in step order.
    RK4's pass builds each n's stack, a ``RegressionStack`` of each
    instance's feature and offset ``W_pt s - y`` with the starts, and keeps
    it for factor descent's. No dense ``W_pt`` is formed: each is drawn in
    64-row blocks through one reused buffer, keeping only ``W_pt s``, so an
    n holds O(k r n + 64 n) floats for k seeds, and the stack has the bits
    of the instances ``make_regression_instance`` builds. A component's
    slope is the log-log slope of its median norm against n (``None`` when
    the medians vanish); flat slopes mean one step size trains every width
    at the same output speed.

    Under this aligned start both schemes are dimension-free by
    construction (factor descent's iterates never involve n, so its slopes
    are exactly 0); the contrast needs ``zero_b_init`` without ``align``.

    Raises ScalingDiverged, from the step's error, when a step meets one of
    ``solvers.DIVERGENCE_ERRORS`` or yields a non-finite component, naming
    the first ``(n, seed)`` that fails, in n order and then in the order of
    ``seeds``, and that seed's first failing step, as if each instance ran
    alone. Since RK4 runs every instance first, the flow's error wins.
    """
    seeds = range(seeds) if isinstance(seeds, int) else seeds
    stacks, results = {}, {}
    for scheme in (Scheme.ODE_RK4, Scheme.CLASSICAL_GD):
        rows = []
        for n in n_list:
            if n not in stacks:
                stacks[n] = _seed_stack(n, seeds)
            rows += _scaling_rows(scheme, *stacks[n], n, seeds, steps, h)
        results[scheme] = _scaling_fit(rows, n_list)
    return results

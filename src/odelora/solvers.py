"""Time discretizations of the balanced adapter flow, plus baselines.

Every factor scheme is one explicit Runge–Kutta engine driven by a
direction function ``(factors, sides, eps) -> (f_a, f_b)`` of the
gradient's two sides ``(B^T G, G A^T)`` at a stage; no direction reads more
of the full-weight gradient G. The stage sides come from
``Objective.sides`` at the stage state, so an objective with a residual
form never builds an m x n matrix inside a step. The flow steppers (Euler,
Heun/RK2, classical RK4) run the engine with the balanced field
``field_eval_sides`` and their Butcher tableaux. The factor baselines are
one-stage (Euler) runs of their own directions: plain factor gradient
descent, Gram-preconditioned descent, and the gradient-matching update
with zero gauge (the X = 0 member of the same solution family as the Euler
flow step). Full-weight gradient descent steps the dense weight instead.
All steppers are pure functions from state to state with one signature,
``(state, objective, h, eps, g=None)``, the objective holding the frozen
base weight; ``full_ft_step`` ignores ``eps``. A step given ``g``, the
gradient at its start state (its ``Sides`` for a factor step, the dense G
for ``full_ft_step``), uses it as the first stage's instead of evaluating
it again; the run loop passes the one of the row it just logged.

``run_stack`` runs k cells that share a start, an objective and every
setting but the scheme and the step size, as one stack: the factor pairs
are A (k, r, n) and B (k, m, r), each step is one call on the whole stack
with the step sizes held as a (k, 1, 1) array, and each cell keeps its own
``TrajectoryLog``. The factor cells, of any of the six factor schemes, step
through one engine, ``_rk_step``. Their slices are ordered by non-increasing
stage count (RK4, RK2, then the one-stage Euler flow and the three
baselines), so stage i steps a prefix of the stack; each stage reads the
objective's sides once, the three flows share one field evaluation per
stage, each tableau sums its stages on its own slices, and one ``move``
finishes the step. The six public factor steps and
``diagnostics.phi_decompose`` are its one-scheme case. Full fine-tuning
steps the dense weights ``W_pt + B A`` as a (k, m, n) stack of its own.
Every stacked operation gives each slice bit-for-bit what it gives that
slice alone, so a cell's rows are those of its run alone. A cell that
halts gets its final row and leaves the stack. numpy's stacked
factorizations raise for the whole stack, so when a step raises one of
``DIVERGENCE_ERRORS`` with more than one cell live, each live cell runs
again alone from its start and keeps that run's log; a stack of one halts
at once. ``run_trajectory`` is the k = 1 case. ``odelora sweep`` runs the
factor cells that share a problem and start as one stack and their
``full_ft`` cells as another: two stacks for an ``h`` sweep, two per value
for a ``delta`` sweep.
"""

from __future__ import annotations

import enum
import itertools
import time
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_EPS,
    FactorGrams,
    LoRAFactors,
    Objective,
    Sides,
    effective_weight,
    field_eval_sides,
)
from .linalg import (
    DegenerateSpectrum,
    NoConvergence,
    NonFiniteState,
    NotPositiveDefinite,
)
from .metrics import ZeroGradient, balance_defect, eps_ratio

__all__ = [
    "Scheme",
    "SolverConfig",
    "TrajectoryRow",
    "TrajectoryLog",
    "DIVERGENCE_LOSS",
    "DIVERGENCE_ERRORS",
    "ode_euler_step",
    "ode_rk2_step",
    "ode_rk4_step",
    "classical_gd_step",
    "riemannian_step",
    "lorapro_step",
    "full_ft_step",
    "run_stack",
    "run_trajectory",
]

# Loss level past which a run is recorded as diverged.
DIVERGENCE_LOSS = 1e12

# What a step raises when a blown-up state reaches the kernel: a non-finite
# factor, gradient or Gram norm, or a failed factorization. The kernel turns
# LAPACK failures into these, and the loops ignore overflow, so any other
# exception (a bare LinAlgError among them) is a bug and propagates.
DIVERGENCE_ERRORS = (NonFiniteState, NotPositiveDefinite, DegenerateSpectrum, NoConvergence)


class Scheme(enum.Enum):
    """The seven solvers, in the fixed order used for sweep layouts."""

    ODE_EULER = "ode_euler"
    ODE_RK2 = "ode_rk2"
    ODE_RK4 = "ode_rk4"
    CLASSICAL_GD = "classical_gd"
    RIEMANNIAN = "riemannian"
    LORA_PRO = "lora_pro"
    FULL_FT = "full_ft"


@dataclass(frozen=True)
class SolverConfig:
    scheme: Scheme
    step_size: float
    iterations: int
    eps_reg: float = DEFAULT_EPS

    def __post_init__(self):
        if not 0 < self.step_size < np.inf:
            raise ValueError("step_size must be positive and finite")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if not 0 <= self.eps_reg < np.inf:
            raise ValueError("eps_reg must be nonnegative and finite")


@dataclass(frozen=True)
class Tableau:
    """Explicit Runge–Kutta tableau whose stage rows hold one nonzero entry.

    Stage i + 1 is evaluated at ``y + subdiagonal[i] h k_i``; the step is
    ``y + h sum_i b_i k_i`` with ``b_i = weights[i] / denominator``. The
    integer weights let the step sum its stages left to right and divide
    once.
    """

    subdiagonal: tuple[float, ...]
    weights: tuple[int, ...]
    denominator: int


EULER = Tableau((), (1,), 1)
HEUN = Tableau((1.0,), (1, 1), 2)
RK4 = Tableau((0.5, 0.5, 1.0), (1, 2, 2, 1), 6)


def _flow_direction(factors: LoRAFactors, sides: Sides, eps: float):
    k = field_eval_sides(factors, sides, eps)
    return k.f_a, k.f_b


def _factor_gradient(factors: LoRAFactors, sides: Sides, eps: float):
    """Composite-loss gradients B^T G in A and G A^T in B, negated; ``eps``
    plays no part."""
    return -sides.bt_g, -sides.g_at


def _riemannian_direction(factors: LoRAFactors, sides: Sides, eps: float):
    grams = FactorGrams(factors, eps)
    return -grams.solve_b(sides.bt_g), -grams.solve_a(sides.g_at.mT).mT


def _lorapro_direction(factors: LoRAFactors, sides: Sides, eps: float):
    """Gradient matching with zero gauge (X = 0): dA = -(B^T B + eps I)^{-1} B^T G,
    dB = -P_B^null G A^T (A A^T + eps I)^{-1}."""
    grams = FactorGrams(factors, eps)
    return -grams.solve_b(sides.bt_g), -grams.project_out_b(grams.solve_a(sides.g_at.mT).mT)


# (tableau, direction) of each factor scheme, in stack order: by non-increasing
# stage count, with the three flows side by side so that they share one
# field evaluation per stage.
_METHODS = {
    Scheme.ODE_RK4: (RK4, _flow_direction),
    Scheme.ODE_RK2: (HEUN, _flow_direction),
    Scheme.ODE_EULER: (EULER, _flow_direction),
    Scheme.CLASSICAL_GD: (EULER, _factor_gradient),
    Scheme.RIEMANNIAN: (EULER, _riemannian_direction),
    Scheme.LORA_PRO: (EULER, _lorapro_direction),
}


class _Run(NamedTuple):
    """Consecutive stack slices that step with one scheme."""

    tableau: Tableau
    direction: Callable
    span: slice  # ``...`` for the one run of a whole state


class _Stage(NamedTuple):
    """What one Runge–Kutta stage steps of a stack."""

    runs: tuple[_Run, ...]  # the runs that have this stage, a prefix of all
    ahead: slice  # the stack prefix they fill, ``...`` for the whole stack
    calls: tuple  # (direction, span) per call, span None for the whole prefix


def _runs(schemes) -> tuple[_Run, ...]:
    """The runs of a stack whose slices carry ``schemes`` in stack order."""
    runs, stop = [], 0
    for scheme, group in itertools.groupby(schemes):
        start, stop = stop, stop + len(list(group))
        runs.append(_Run(*_METHODS[scheme], slice(start, stop)))
    return tuple(runs)


def _plan(runs) -> tuple[_Stage, ...]:
    """The stages of a stack of ``runs``, which are in non-increasing stage
    count: each direction is called once per range of consecutive runs
    that share it."""
    plan = []
    for i in range(len(runs[0].tableau.weights)):
        staged = tuple(run for run in runs if len(run.tableau.weights) > i)
        calls = []
        for direction, group in itertools.groupby(staged, key=lambda run: run.direction):
            group = list(group)
            if len(group) == len(staged):
                calls.append((direction, None))
            else:
                calls.append((direction, slice(group[0].span.start, group[-1].span.stop)))
        ahead = ... if len(staged) == len(runs) else slice(0, staged[-1].span.stop)
        plan.append(_Stage(staged, ahead, tuple(calls)))
    return tuple(plan)


# The plan of a state, stacked or not, that steps with one scheme.
_ALONE = {scheme: _plan((_Run(*method, ...),)) for scheme, method in _METHODS.items()}


def _gather(parts):
    """The parts of consecutive stack ranges as one array."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _part(h, span):
    """The step sizes of the slices ``span``: ``h`` itself for ``...``, so a
    float step size stays a Python float."""
    return h if span is ... else h[span]


def _rk_step(plan, factors: LoRAFactors, objective: Objective, h, eps, g=None):
    """One step of a stack whose slices run the schemes of ``plan``:
    ``(next_state, stages)``, with ``stages[i]`` the stage fields
    ``(f_a, f_b)`` that stage i gives the slices it steps.

    ``plan`` is ``_plan`` of the slices' runs, or ``_ALONE[scheme]``. Stage
    i steps a prefix of the stack, reads ``objective.sides`` once, at that
    prefix, and makes the stage's direction calls; each run sums its
    tableau's stages on its own range, and one ``move`` finishes the step.
    ``g`` is the ``Sides`` of the gradient at ``factors``' effective
    weight when the caller already has them.
    """
    sides = objective.sides(factors) if g is None else g
    state, stages = factors, []
    for i, stage in enumerate(plan):
        if i:
            c_h = _gather([run.tableau.subdiagonal[i - 1] * _part(h, run.span)
                           for run in stage.runs])
            f_a, f_b = stages[-1]
            state = LoRAFactors(factors.a[stage.ahead] + c_h * f_a[stage.ahead],
                                factors.b[stage.ahead] + c_h * f_b[stage.ahead])
            sides = objective.sides(state)
        fields = [direction(state, sides, eps) if span is None
                  else direction(state.take(span), sides.take(span), eps)
                  for direction, span in stage.calls]
        stages.append(fields[0] if len(fields) == 1 else tuple(map(np.concatenate, zip(*fields))))
    totals = []
    for tableau, _, span in plan[0].runs:
        total = [tableau.weights[0] * part[span] for part in stages[0]]
        for b, stage in zip(tableau.weights[1:], stages[1:]):
            total = [acc + b * part[span] for acc, part in zip(total, stage)]
        totals.append([acc / tableau.denominator for acc in total])
    f_a, f_b = (_gather(parts) for parts in zip(*totals))
    return factors.move(f_a, f_b, h), stages


def ode_euler_step(factors: LoRAFactors, objective: Objective, h: float,
                   eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """One forward-Euler step of the balanced flow."""
    return _rk_step(_ALONE[Scheme.ODE_EULER], factors, objective, h, eps, g)[0]


def ode_rk2_step(factors: LoRAFactors, objective: Objective, h: float,
                 eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """One Heun (two-stage, second-order) step of the balanced flow."""
    return _rk_step(_ALONE[Scheme.ODE_RK2], factors, objective, h, eps, g)[0]


def ode_rk4_step(factors: LoRAFactors, objective: Objective, h: float,
                 eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """One classical four-stage RK4 step of the balanced flow."""
    return _rk_step(_ALONE[Scheme.ODE_RK4], factors, objective, h, eps, g)[0]


def classical_gd_step(factors: LoRAFactors, objective: Objective, h: float,
                      eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """Plain gradient descent on the factors (B^T G in A, G A^T in B); ignores ``eps``."""
    return _rk_step(_ALONE[Scheme.CLASSICAL_GD], factors, objective, h, eps, g)[0]


def riemannian_step(factors: LoRAFactors, objective: Objective, h: float,
                    eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """Gram-preconditioned factor descent:
    A' = A - h (B^T B + eps I)^{-1} B^T G, B' = B - h G A^T (A A^T + eps I)^{-1}."""
    return _rk_step(_ALONE[Scheme.RIEMANNIAN], factors, objective, h, eps, g)[0]


def lorapro_step(factors: LoRAFactors, objective: Objective, h: float,
                 eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """One step along the zero-gauge gradient-matching direction."""
    return _rk_step(_ALONE[Scheme.LORA_PRO], factors, objective, h, eps, g)[0]


def full_ft_step(w: np.ndarray, objective: Objective, h,
                 eps: float = DEFAULT_EPS, g=None) -> np.ndarray:
    """Full-weight gradient descent: W - h grad(W); ``g`` is grad(W) when
    known. W may be a (k, m, n) stack, with h a (k, 1, 1) array; ``grad``
    then runs slice by slice. Ignores ``eps``."""
    if g is None:
        g = objective.grad(w) if w.ndim == 2 else np.array([objective.grad(x) for x in w])
    return w - h * g


@dataclass(frozen=True, slots=True)
class TrajectoryRow:
    iter: int
    loss: float
    grad_norm: float
    balance_defect: float | None
    eps_ratio: float | None
    dist_to_opt: float | None
    wall_nanos: int


@dataclass
class TrajectoryLog:
    """Per-iteration diagnostics; ``diverged`` marks an early halt."""

    rows: list[TrajectoryRow] = dataclass_field(default_factory=list)
    diverged: bool = False

    def losses(self) -> np.ndarray:
        return np.array([row.loss for row in self.rows])

    @property
    def final_loss(self) -> float:
        return self.rows[-1].loss


def _step_for(scheme: Scheme):
    # The public step of each scheme, for callers that step one scheme at a
    # time (estimate_order); built per call, as perfbench's tracer patches
    # solvers.<name>_step. run_stack steps factor cells with _rk_step.
    return {
        Scheme.ODE_EULER: ode_euler_step,
        Scheme.ODE_RK2: ode_rk2_step,
        Scheme.ODE_RK4: ode_rk4_step,
        Scheme.CLASSICAL_GD: classical_gd_step,
        Scheme.RIEMANNIAN: riemannian_step,
        Scheme.LORA_PRO: lorapro_step,
        Scheme.FULL_FT: full_ft_step,
    }[scheme]


def _take(x, index):
    """The stack slices ``index`` of a state, or of the gradient a step starts from."""
    return x[index] if isinstance(x, np.ndarray) else x.take(index)


def _null_space_ratios(state: LoRAFactors, g: np.ndarray, eps: float):
    """``eps_ratio`` of each slice: 0.0 where the gradient vanishes, and
    None (a blank field) where the kernel refuses the slice's Grams. It is
    a diagnostic, so a refusal here never halts the run."""
    try:
        return eps_ratio(state, g, eps)
    except (ZeroGradient, *DIVERGENCE_ERRORS):
        pass
    ratios = []
    for j in range(len(g)):
        try:
            ratios.append(eps_ratio(state.take(j), g[j], eps))
        except ZeroGradient:
            ratios.append(0.0)
        except DIVERGENCE_ERRORS:
            ratios.append(None)
    return ratios


def _require_base_weight(objective: Objective) -> None:
    """TypeError, naming ``objective``'s class, unless it holds a base weight."""
    if objective.w_pt is None:
        raise TypeError(f"{type(objective).__name__} has no base weight (w_pt is None)")


def run_stack(
    start: LoRAFactors,
    objective: Objective,
    configs,
    *,
    log_eps_ratio: bool = True,
    log_balance: bool = True,
) -> list[TrajectoryLog]:
    """Run one cell per config as one stack; return the cells' logs in order.

    The configs may differ in ``scheme`` and ``step_size`` only (else
    ValueError), and ``full_ft``, which steps the dense weight, shares a
    stack with no factor scheme (ValueError). An empty ``configs`` raises
    ValueError before the objective is read. Every cell starts from
    ``start``, or from its own slice when ``start`` is a stack of one state
    per config. The factor cells step as one ``_rk_step`` stack, their
    slices in stack order (``_METHODS``). Each cell's log is the one
    ``run_trajectory`` gives it alone, but for ``wall_nanos``: see the
    module docstring for how the stack is stepped and how a cell leaves it.
    A start that is not ``LoRAFactors``, or an objective with no base
    weight, raises TypeError before any step.
    """
    if not isinstance(start, LoRAFactors):
        raise TypeError("a run takes a LoRAFactors start")
    configs = list(configs)
    if not configs:
        raise ValueError("an empty stack: run_stack needs at least one config")
    _require_base_weight(objective)
    config, k = configs[0], len(configs)
    if any((c.iterations, c.eps_reg) != (config.iterations, config.eps_reg) for c in configs):
        raise ValueError("the cells of a stack differ in more than their schemes and step sizes")
    full = config.scheme is Scheme.FULL_FT
    if any((c.scheme is Scheme.FULL_FT) != full for c in configs):
        raise ValueError("full_ft steps the dense weight and shares no stack with a factor scheme")
    if not start.stacked:
        start = LoRAFactors(np.broadcast_to(start.a, (k, *start.a.shape)),
                            np.broadcast_to(start.b, (k, *start.b.shape)))
    elif start.a.shape[0] != k:
        raise ValueError(f"a stack of {start.a.shape[0]} starts for {k} cells")
    logs = [TrajectoryLog() for _ in configs]
    order = list(_METHODS) + [Scheme.FULL_FT]
    live = sorted(range(k), key=lambda cell: order.index(configs[cell].scheme))
    state = start.take(live)  # slot j of the stack steps cell live[j]
    if full:
        state = effective_weight(objective.w_pt, state)
    h = np.array([configs[cell].step_size for cell in live])[:, None, None]
    eps = config.eps_reg
    plan = None if full else _plan(_runs(configs[cell].scheme for cell in live))

    def leave(stays, i: int, losses=None) -> None:
        """Give the slices that do not stay their final row, with their loss
        (``nan`` without ``losses``), and drop them from the stack."""
        nonlocal state, h, live, plan
        for slot in np.flatnonzero(~stays):
            loss = float("nan") if losses is None else float(losses[slot])
            log = logs[live[slot]]
            log.rows.append(TrajectoryRow(i, loss, float("nan"), None, None, None,
                                          time.perf_counter_ns()))
            log.diverged = True
        state, h = _take(state, stays), h[stays]
        live = [cell for cell, stay in zip(live, stays) if stay]
        if live and not full:
            plan = _plan(_runs(configs[cell].scheme for cell in live))

    def record(i: int):
        """Append a row for each slice and return the gradient the next step
        starts from; None halts the run."""
        w = state if full else effective_weight(objective.w_pt, state)
        stays = np.isfinite(w).all(axis=(1, 2))
        if not stays.all():
            leave(stays, i)
            if not live:
                return None
            w = w[stays]
        dist = [None] * len(live)
        if objective.optimum_w is not None:
            dist = [float(np.linalg.norm(x - objective.optimum_w)) for x in w]
        if full:
            loss = np.array([float(objective.loss(x)) for x in w])
            g = first = np.array([objective.grad(x) for x in w])
        else:
            del w  # the dense W is not held while the objective is evaluated
            loss, g, first = objective.evaluate(state)
        stays = np.isfinite(loss) & (loss <= DIVERGENCE_LOSS)
        if not stays.all():
            leave(stays, i, loss)
            if not live:
                return None
            loss, g, first = loss[stays], g[stays], _take(first, stays)
            dist = [d for d, stay in zip(dist, stays) if stay]
        defect = ratio = [None] * len(live)
        if not full and log_balance:
            defect = balance_defect(state)
        if not full and log_eps_ratio:
            ratio = _null_space_ratios(state, g, eps)
        for slot, cell in enumerate(live):
            logs[cell].rows.append(TrajectoryRow(
                i, float(loss[slot]), float(np.linalg.norm(g[slot])),
                None if defect[slot] is None else float(defect[slot]),
                None if ratio[slot] is None else float(ratio[slot]),
                dist[slot], time.perf_counter_ns()))
        return first

    with np.errstate(over="ignore", invalid="ignore"):
        g = record(0)
        for i in range(1, config.iterations + 1):
            if g is None:
                break
            try:
                if full:
                    state = full_ft_step(state, objective, h, eps, g)
                else:
                    state = _rk_step(plan, state, objective, h, eps, g)[0]
            except DIVERGENCE_ERRORS:
                # A blown-up state reached the kernel; record as divergence.
                # A stacked call raises for the whole stack, so each live
                # cell of a larger stack runs again alone, from its start.
                if len(live) == 1:
                    leave(np.array([False]), i)
                else:
                    for cell in live:
                        logs[cell] = run_stack(start.take([cell]), objective,
                                               [configs[cell]],
                                               log_eps_ratio=log_eps_ratio,
                                               log_balance=log_balance)[0]
                break
            g = record(i)
    return logs


def run_trajectory(
    start: LoRAFactors,
    objective: Objective,
    config: SolverConfig,
    *,
    w_pt: np.ndarray | None = None,
    log_eps_ratio: bool = True,
    log_balance: bool = True,
) -> TrajectoryLog:
    """Iterate the configured stepper, logging one row per state.

    Every scheme starts from the factors ``start``; FULL_FT steps the dense
    weight ``objective.w_pt + B A``, which it builds from them. A start of
    any other type, or an objective with no base weight, raises TypeError.
    Divergence (loss above DIVERGENCE_LOSS, a non-finite state, or a step
    that fails a factorization) is recorded, not raised: the log gets its
    final row, with a ``nan`` gradient norm, and ``diverged`` is set. Any
    other exception, a plain ``ValueError`` included, propagates. A logged
    row reads ``objective.evaluate`` once (``loss`` and ``grad`` for
    FULL_FT), and the gradient it logs is the next step's first-stage
    gradient: the sides for a factor step, G for ``full_ft_step``. The
    null-space ratio and the balance defect are computed only when their
    ``log_*`` flag is set, and never for FULL_FT; otherwise their fields
    stay ``None``. This is ``run_stack`` with one cell, a stack of k = 1.
    ``w_pt``, if given, must be ``objective.w_pt`` itself, else ValueError;
    ROADMAP item 1 drops it, together with ``cmd_sweep``'s inert ``jobs``.
    """
    if w_pt is not None and w_pt is not objective.w_pt:
        raise ValueError("w_pt is not the objective's own base weight")
    return run_stack(start, objective, [config], log_eps_ratio=log_eps_ratio,
                     log_balance=log_balance)[0]

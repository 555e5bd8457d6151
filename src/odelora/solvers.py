"""Time discretizations of the balanced adapter flow, plus baselines.

Every factor scheme is one explicit Runge–Kutta engine driven by a
direction function ``(factors, sides, grams) -> (f_a, f_b)`` of the
gradient's two sides ``(B^T G, G A^T)`` at a stage and of the Grams the
engine factors there (None for ``classical_gd``, which reads none); no
direction reads more of the full-weight gradient G. The stage sides come
from ``Objective.sides`` at the stage state, so an objective with a
residual form never builds an m x n matrix inside a step. The flow schemes
(Euler, Heun/RK2, classical RK4) run the engine with the balanced field
``core.field_eval`` and their Butcher tableaux. The factor baselines are
one-stage (Euler) runs of their own directions: plain factor gradient
descent, Gram-preconditioned descent, and the gradient-matching update with
zero gauge (the X = 0 member of the same solution family as the Euler flow
step). Full-weight gradient descent steps the dense weight instead.
``step(scheme, state, objective, h, eps, g=None)`` is every scheme's one
public step, a pure function from state to state; the objective holds the
frozen base weight. FULL_FT ignores ``eps``, but every caller's ``eps``
meets one rule (``_require_eps``): nonnegative and finite, else ValueError
before any factorization. A step given ``g``, the gradient at its start
state (its ``Sides`` for a factor scheme, the dense G for FULL_FT), uses it
as the first stage's instead of evaluating it again; the run loop passes
the one of the row it just logged.

``run_stack`` runs k cells that share a start, an objective and every
setting but the scheme and the step size, as one stack: the factor pairs
are A (k, r, n) and B (k, m, r), each step is one call on the whole stack
with the step sizes held as a (k, 1, 1) array, and each cell keeps its own
``TrajectoryLog``. The factor cells, of any of the six factor schemes, step
through one engine, ``_rk_step``. Their slices are in stack order
(``_METHODS``): RK4, RK2, the one-stage Euler flow, ``riemannian``,
``lora_pro``, and last ``classical_gd``. So stage i steps a prefix of the
stack, and the slices whose directions read Grams form a prefix of each
stage. Each stage reads the objective's sides once and factors that
prefix's Grams in one ``FactorGrams``; each range of consecutive slices
that share a direction makes one call, on views of its slices of the
state, sides and Grams, so the three flows share one field evaluation per
stage. Callers pass the engine their slices' schemes (``step`` and
``diagnostics.phi_decompose`` pass one), and their plan (``_plan``,
memoized, refusing schemes out of stack order) holds each slice's tableau
as columns, so every slice's stages sum in one pass and one ``move``
finishes the step. Full fine-tuning steps the dense weights ``W_pt + B A``
as a (k, m, n) stack of its own. A logged row takes each of its values as
one stacked call on the live slices: the objective's ``evaluate``,
``||G||^2`` (``core.slice_dots``; its square root is the gradient norm,
and the null-space ratio divides by it), the objective's ``dist_to_opt``,
the balance defect and the ratio. At a factor state it forms no m x n
array but G: only a slice whose ``W_pt + B A`` a bound cannot show finite
has its W formed (``_finite_weights``). Every stacked operation gives each slice
bit-for-bit what it gives that slice alone, so a cell's rows are those of
its run alone. A cell that halts gets its final row and leaves the stack. numpy's stacked
factorizations raise for the whole stack, so when a step raises one of
``DIVERGENCE_ERRORS`` with more than one cell live, each live cell takes
that step alone through ``step``, as a stack of one: exactly the step its
run alone takes there. The cells whose step still raises halt on that
iteration, and the rest step on as one stack; a stack of one halts at
once. ``run_trajectory`` is the k = 1 case. ``odelora sweep`` runs the
factor cells that share a problem and start as one stack and their
``full_ft`` cells as another: two stacks for an ``h`` sweep, two per value
for a ``delta`` sweep.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
import time
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
    field_eval,
    slice_dots,
    slice_norms,
)
from .linalg import (
    DegenerateSpectrum,
    NoConvergence,
    NonFiniteState,
    NotPositiveDefinite,
)
from .metrics import ZeroGradient, _ratio, balance_defect

__all__ = [
    "Scheme",
    "SolverConfig",
    "TrajectoryRow",
    "TrajectoryLog",
    "DIVERGENCE_LOSS",
    "DIVERGENCE_ERRORS",
    "step",
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
        _require_step(self.scheme, self.step_size, "step_size")
        if operator.index(self.iterations) < 0:
            raise ValueError("iterations must be nonnegative")
        _require_eps(self.eps_reg, "eps_reg")


def _require_eps(eps: float, name: str = "eps") -> None:
    """ValueError unless the Grams' Tikhonov term ``eps`` is nonnegative and finite."""
    if not 0 <= eps < np.inf:
        raise ValueError(f"{name} must be nonnegative and finite")


def _require_step(scheme: Scheme, h, name: str = "h") -> None:
    """TypeError unless ``scheme`` is a Scheme; ValueError unless each step size is in (0, inf)."""
    if not isinstance(scheme, Scheme):
        raise TypeError(f"scheme must be a Scheme, got {scheme!r}")
    if not np.all((0 < h) & (h < np.inf)):
        raise ValueError(f"{name} must be positive and finite")


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


def _flow_direction(factors: LoRAFactors, sides: Sides, grams: FactorGrams):
    k = field_eval(factors, sides, grams)
    return k.f_a, k.f_b


def _factor_gradient(factors: LoRAFactors, sides: Sides, grams):
    """Composite-loss gradients B^T G in A and G A^T in B, negated; ``grams`` is None."""
    return -sides.bt_g, -sides.g_at


def _riemannian_direction(factors: LoRAFactors, sides: Sides, grams: FactorGrams):
    """Gram-preconditioned descent: dA = -(B^T B + eps I)^{-1} B^T G,
    dB = -G A^T (A A^T + eps I)^{-1}."""
    return -grams.solve_b(sides.bt_g), -grams.solve_a(sides.g_at.mT).mT


def _lorapro_direction(factors: LoRAFactors, sides: Sides, grams: FactorGrams):
    """Gradient matching with zero gauge (X = 0): dA = -(B^T B + eps I)^{-1} B^T G,
    dB = -P_B^null G A^T (A A^T + eps I)^{-1}."""
    return -grams.solve_b(sides.bt_g), -grams.project_out_b(grams.solve_a(sides.g_at.mT).mT)


# (tableau, direction) of each factor scheme, in stack order: by non-increasing
# stage count, with the three flows side by side so that they share one field
# evaluation per stage, and classical_gd, whose direction factors no Gram,
# last, so that the slices whose directions read Grams form a prefix of every
# stage and share one factorization.
_METHODS = {
    Scheme.ODE_RK4: (RK4, _flow_direction),
    Scheme.ODE_RK2: (HEUN, _flow_direction),
    Scheme.ODE_EULER: (EULER, _flow_direction),
    Scheme.RIEMANNIAN: (EULER, _riemannian_direction),
    Scheme.LORA_PRO: (EULER, _lorapro_direction),
    Scheme.CLASSICAL_GD: (EULER, _factor_gradient),
}


class _Stage(NamedTuple):
    """What one Runge–Kutta stage steps of a stack. ``c`` and ``b`` hold one
    value per slice of ``ahead``: a scalar when the slices share it, else a
    (p, 1, 1) column."""

    ahead: slice  # the stack prefix it steps, ``...`` for the whole stack
    factored: slice | None  # the prefix whose directions read Grams, None if empty
    calls: tuple  # (direction, span) per call, span None for the whole prefix
    c: float | np.ndarray | None  # subdiagonal coefficient of its start, None at stage 0
    b: int | np.ndarray  # its weight in the step's sum


class _Plan(NamedTuple):
    """The stages of a stack's step and each slice's denominator, which
    divides the step's sum of weighted stages."""

    stages: tuple[_Stage, ...]
    denominator: int | np.ndarray  # one per slice, as ``_Stage.b``


def _column(values):
    """One value per slice: the shared value itself, or a (p, 1, 1) column."""
    column = np.array(values, float)[:, None, None]
    column.setflags(write=False)  # _plan hands one plan to every caller
    return values[0] if len(set(values)) == 1 else column


@functools.cache
def _plan(schemes: tuple[Scheme, ...]) -> _Plan:
    """The plan of a stack whose slices carry ``schemes``, a tuple in stack
    order (ValueError, naming them, if they are not), built once per tuple.
    Each direction is called once per range of consecutive slices that
    share it."""
    if sorted(schemes, key=list(_METHODS).index) != list(schemes):
        raise ValueError("schemes not in stack order: "
                         + ", ".join(scheme.value for scheme in schemes))
    methods = [_METHODS[scheme] for scheme in schemes]
    stages = []
    for i in range(len(methods[0][0].weights)):
        staged = [(tableau, direction) for tableau, direction in methods
                  if len(tableau.weights) > i]
        p = len(staged)
        q = sum(direction is not _factor_gradient for _, direction in staged)
        calls, stop = [], 0
        for direction, group in itertools.groupby(direction for _, direction in staged):
            start, stop = stop, stop + len(list(group))
            calls.append((direction, None if stop - start == p else slice(start, stop)))
        stages.append(_Stage(
            ahead=... if p == len(methods) else slice(0, p),
            factored=None if q == 0 else ... if q == p else slice(0, q),
            calls=tuple(calls),
            c=_column([tableau.subdiagonal[i - 1] for tableau, _ in staged]) if i else None,
            b=_column([tableau.weights[i] for tableau, _ in staged]),
        ))
    return _Plan(tuple(stages), _column([tableau.denominator for tableau, _ in methods]))


def _rk_step(schemes, factors: LoRAFactors, objective: Objective, h, eps, g=None):
    """One step of a stack whose slices run ``schemes``, a tuple in stack
    order: ``(next_state, stages)``, with ``stages[i]`` the stage fields
    ``(f_a, f_b)`` that stage i gives the slices it steps.

    Stage i of their plan (``_plan``) steps a prefix of p slices, from
    ``a[:p] + (c h[:p]) f_a[:p]`` (and likewise for B) with ``f_a`` the
    previous stage's field; it reads ``objective.sides`` once, at that
    prefix, factors the Grams of the slices whose directions read them in
    one ``FactorGrams``, and makes the stage's direction calls, each on
    views of its slices of the state, sides and Grams. The step sums the
    stages as ``b_0 k_0``, adds ``b_i k_i`` to the first p slices of that
    sum for each later stage, divides by the slices' denominators and
    finishes with one ``move``. ``g`` is the ``Sides`` of the gradient at
    ``factors``' effective weight when the caller already has them.
    """
    plan = _plan(schemes)
    sides = objective.sides(factors) if g is None else g
    state, stages = factors, []
    for stage in plan.stages:
        if stages:
            f_a, f_b = stages[-1]
            c_h = stage.c * (h if stage.ahead is ... else h[stage.ahead])
            state = LoRAFactors(factors.a[stage.ahead] + c_h * f_a[stage.ahead],
                                factors.b[stage.ahead] + c_h * f_b[stage.ahead])
            sides = objective.sides(state)
        grams = None
        if stage.factored is not None:
            grams = FactorGrams(state if stage.factored is ... else state.take(stage.factored),
                                eps)
        fields = [direction(state, sides, grams) if span is None
                  else direction(state.take(span), sides.take(span),
                                 None if direction is _factor_gradient else grams.take(span))
                  for direction, span in stage.calls]
        stages.append(fields[0] if len(fields) == 1 else tuple(map(np.concatenate, zip(*fields))))
    total_a, total_b = (plan.stages[0].b * part for part in stages[0])
    for stage, (f_a, f_b) in zip(plan.stages[1:], stages[1:]):
        total_a[stage.ahead] += stage.b * f_a
        total_b[stage.ahead] += stage.b * f_b
    return factors.move(total_a / plan.denominator, total_b / plan.denominator, h), stages


def step(scheme: Scheme, state, objective: Objective, h, eps: float = DEFAULT_EPS, g=None):
    """One step of ``scheme`` from ``state``: the engine's step of that one
    scheme, or for FULL_FT ``W - h grad(W)`` on the dense weight or a
    (k, m, n) stack. A stacked state takes h as a (k, 1, 1) array; ``g`` is
    the gradient at ``state`` when known. TypeError unless ``scheme`` is a
    Scheme, ValueError unless h is positive and finite."""
    _require_step(scheme, h)
    _require_eps(eps)
    if scheme is not Scheme.FULL_FT:
        return _rk_step((scheme,), state, objective, h, eps, g)[0]
    return state - h * (objective.grad(state) if g is None else g)


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


def _take(x, index):
    """The stack slices ``index`` of a state, or of the gradient a step starts from."""
    return x[index] if isinstance(x, np.ndarray) else x.take(index)


def _null_space_ratios(state: LoRAFactors, g: np.ndarray, gnorm2: np.ndarray, eps: float):
    """``eps_ratio`` of each slice, as a list, given ``gnorm2``, each slice's
    ``||G||^2``: 0.0 where the gradient vanishes, and None (a blank field)
    where ``||G||^2`` is not finite or the kernel refuses the slice's Grams.
    It is a diagnostic, so a refusal here never halts the run."""
    try:
        return _ratio(state, g, gnorm2, eps).tolist()
    except (ZeroGradient, *DIVERGENCE_ERRORS):
        pass
    ratios = []
    for j in range(len(g)):
        try:
            ratios.append(_ratio(state.take(j), g[j], float(gnorm2[j]), eps))
        except ZeroGradient:
            ratios.append(0.0)
        except DIVERGENCE_ERRORS:
            ratios.append(None)
    return ratios


# |(B A)_ij| <= r max|B| max|A|, and W_pt + B A rounds each entry up by a
# relative (r + 1) u at most; half the largest float leaves room for both.
_FINITE_BOUND = np.finfo(np.float64).max / 2


def _finite_weights(state: LoRAFactors, w_pt: np.ndarray, w_max: float) -> np.ndarray:
    """Whether each slice's ``W_pt + B A`` is finite, given ``w_max = max|W_pt|``.

    The factors are finite (``LoRAFactors``), so only ``B A`` can overflow.
    A slice whose ``r max|B| max|A| + w_max`` is below ``_FINITE_BOUND`` is
    finite; only a slice over it has its W formed, alone, and checked.
    """
    bound = (state.rank * np.abs(state.b).max(axis=(1, 2)) * np.abs(state.a).max(axis=(1, 2))
             + w_max)
    finite = bound < _FINITE_BOUND
    for j in np.flatnonzero(~finite):
        finite[j] = np.isfinite(effective_weight(w_pt, state.take(j))).all()
    return finite


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
    slices in stack order (``_METHODS``); a step that raises one of
    ``DIVERGENCE_ERRORS`` is taken again by each live cell alone. Each
    cell's log is the one ``run_trajectory`` gives it alone, but for
    ``wall_nanos``: see the module docstring for how the stack is stepped
    and how a cell leaves it. A factor row logs ``eps_ratio`` 0.0 exactly
    where its ``grad_norm`` is at most 1e-14, and its ``dist_to_opt`` is
    ``objective.dist_to_opt``; a ``full_ft`` row's is ``||W - W*||``.
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
    schemes = tuple(configs[cell].scheme for cell in live)
    eps = config.eps_reg
    w_max = max(objective.w_pt.max(), -objective.w_pt.min())  # no |W_pt| temporary

    def leave(stays, i: int, losses=None) -> None:
        """Give the slices that do not stay their final row, with their loss
        (``nan`` without ``losses``), and drop them from the stack."""
        nonlocal state, h, live, schemes
        for slot in np.flatnonzero(~stays):
            loss = float("nan") if losses is None else float(losses[slot])
            log = logs[live[slot]]
            log.rows.append(TrajectoryRow(i, loss, float("nan"), None, None, None,
                                          time.perf_counter_ns()))
            log.diverged = True
        state, h = _take(state, stays), h[stays]
        live = [cell for cell, stay in zip(live, stays) if stay]
        schemes = tuple(scheme for scheme, stay in zip(schemes, stays) if stay)

    def record(i: int):
        """Append a row for each slice and return the gradient the next step
        starts from; None halts the run. Each logged value is one stacked
        call on the live slices."""
        stays = (np.isfinite(state).all(axis=(1, 2)) if full
                 else _finite_weights(state, objective.w_pt, w_max))
        if not stays.all():
            leave(stays, i)
            if not live:
                return None
        if full:
            loss = objective.loss(state)
            # per slice: perfbench/tracer.py's grad_flops reads a 2-D W
            g = first = np.array([objective.grad(x) for x in state])
        else:
            loss, g, first = objective.evaluate(state)
        stays = np.isfinite(loss) & (loss <= DIVERGENCE_LOSS)
        if not stays.all():
            leave(stays, i, loss)
            if not live:
                return None
            loss, g, first = loss[stays], g[stays], _take(first, stays)
        blank = [None] * len(live)
        if not full:
            dist = objective.dist_to_opt(state)
        elif objective.optimum_w is not None:
            dist = slice_norms(state - objective.optimum_w)
        else:
            dist = None
        gnorm2 = slice_dots(g, g)
        defect = balance_defect(state).tolist() if log_balance and not full else blank
        ratio = (_null_space_ratios(state, g, gnorm2, eps) if log_eps_ratio and not full
                 else blank)
        dist = blank if dist is None else dist.tolist()
        for cell, *values in zip(live, loss.tolist(), np.sqrt(gnorm2).tolist(), defect, ratio,
                                 dist):
            logs[cell].rows.append(TrajectoryRow(i, *values, time.perf_counter_ns()))
        return first

    def alone(j: int, g):
        """Slot j's step taken alone, as a stack of one, or None if it raises."""
        try:
            return step(schemes[j], state.take([j]), objective, h[[j]], eps, g.take([j]))
        except DIVERGENCE_ERRORS:
            return None

    with np.errstate(over="ignore", invalid="ignore"):
        g = record(0)
        for i in range(1, config.iterations + 1):
            if g is None:
                break
            try:
                # a full_ft step, given g, calls neither the objective nor
                # the kernel, so only a factor step can raise
                if full:
                    state = step(Scheme.FULL_FT, state, objective, h, eps, g)
                else:
                    state = _rk_step(schemes, state, objective, h, eps, g)[0]
            except DIVERGENCE_ERRORS:
                # A blown-up state reached the kernel; record as divergence.
                # A stacked call raises for the whole stack, so each cell of
                # a larger stack takes this step alone: those whose step
                # still raises halt, and the rest step on as one stack.
                taken = [None] if len(live) == 1 else [alone(j, g) for j in range(len(live))]
                leave(np.array([after is not None for after in taken]), i)
                if not live:
                    break
                taken = [after for after in taken if after is not None]
                state = LoRAFactors(np.concatenate([after.a for after in taken]),
                                    np.concatenate([after.b for after in taken]))
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
    gradient: the sides for a factor step, G for FULL_FT. The
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

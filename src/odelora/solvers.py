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
``(state, w_pt, objective, h, eps, g=None)``; ``full_ft_step`` ignores
``w_pt`` and ``eps``. ``run_trajectory`` starts every scheme from one
``LoRAFactors`` (full fine-tuning from its effective weight
``W_pt + B A``), iterates the scheme's step and logs per-iteration
diagnostics. A step given ``g``, the gradient at its start state (its
``Sides`` for a factor step, the dense G for ``full_ft_step``), uses it as
the first stage's instead of evaluating it again; ``run_trajectory`` passes
the one of the row it just logged.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .core import (
    DEFAULT_EPS,
    FactorGrams,
    LoRAFactors,
    Objective,
    Sides,
    effective_weight,
    field_eval_sides,
    gradient_sides,
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
    "lorapro_direction",
    "full_ft_step",
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
    return -grams.solve_b(sides.bt_g), -grams.solve_a(sides.g_at.T).T


def _lorapro_direction(factors: LoRAFactors, sides: Sides, eps: float):
    grams = FactorGrams(factors, eps)
    return -grams.solve_b(sides.bt_g), -grams.project_out_b(grams.solve_a(sides.g_at.T).T)


def lorapro_direction(
    factors: LoRAFactors, g: np.ndarray, eps: float = DEFAULT_EPS
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-matching direction with zero gauge (X = 0):
    dA = -(B^T B + eps I)^{-1} B^T G, dB = -P_B^null G A^T (A A^T + eps I)^{-1}."""
    return _lorapro_direction(factors, gradient_sides(factors, g), eps)


# (tableau, direction) of each factor scheme.
_METHODS = {
    Scheme.ODE_EULER: (EULER, _flow_direction),
    Scheme.ODE_RK2: (HEUN, _flow_direction),
    Scheme.ODE_RK4: (RK4, _flow_direction),
    Scheme.CLASSICAL_GD: (EULER, _factor_gradient),
    Scheme.RIEMANNIAN: (EULER, _riemannian_direction),
    Scheme.LORA_PRO: (EULER, _lorapro_direction),
}


def _rk_step(scheme: Scheme, factors: LoRAFactors, w_pt, objective: Objective, h, eps,
             g=None):
    """One step of a factor scheme: ``(next_state, tableau, stages)``, with
    ``stages`` the stage fields ``[(f_a, f_b), ...]`` the step summed.

    ``g`` is the ``Sides`` of the gradient at ``factors``' effective weight
    when the caller already has them.
    """
    tableau, direction = _METHODS[scheme]
    sides = objective.sides(factors, w_pt) if g is None else g
    stages = [direction(factors, sides, eps)]
    for c in tableau.subdiagonal:
        state = factors.move(*stages[-1], c * h)
        stages.append(direction(state, objective.sides(state, w_pt), eps))
    total = [tableau.weights[0] * part for part in stages[0]]
    for b, stage in zip(tableau.weights[1:], stages[1:]):
        total = [acc + b * part for acc, part in zip(total, stage)]
    return factors.move(*(acc / tableau.denominator for acc in total), h), tableau, stages


def ode_euler_step(factors: LoRAFactors, w_pt, objective: Objective, h: float,
                   eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """One forward-Euler step of the balanced flow."""
    return _rk_step(Scheme.ODE_EULER, factors, w_pt, objective, h, eps, g)[0]


def ode_rk2_step(factors: LoRAFactors, w_pt, objective: Objective, h: float,
                 eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """One Heun (two-stage, second-order) step of the balanced flow."""
    return _rk_step(Scheme.ODE_RK2, factors, w_pt, objective, h, eps, g)[0]


def ode_rk4_step(factors: LoRAFactors, w_pt, objective: Objective, h: float,
                 eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """One classical four-stage RK4 step of the balanced flow."""
    return _rk_step(Scheme.ODE_RK4, factors, w_pt, objective, h, eps, g)[0]


def classical_gd_step(factors: LoRAFactors, w_pt, objective: Objective, h: float,
                      eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """Plain gradient descent on the factors (B^T G in A, G A^T in B); ignores ``eps``."""
    return _rk_step(Scheme.CLASSICAL_GD, factors, w_pt, objective, h, eps, g)[0]


def riemannian_step(factors: LoRAFactors, w_pt, objective: Objective, h: float,
                    eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """Gram-preconditioned factor descent:
    A' = A - h (B^T B + eps I)^{-1} B^T G, B' = B - h G A^T (A A^T + eps I)^{-1}."""
    return _rk_step(Scheme.RIEMANNIAN, factors, w_pt, objective, h, eps, g)[0]


def lorapro_step(factors: LoRAFactors, w_pt, objective: Objective, h: float,
                 eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """One step along the zero-gauge gradient-matching direction."""
    return _rk_step(Scheme.LORA_PRO, factors, w_pt, objective, h, eps, g)[0]


def full_ft_step(w: np.ndarray, w_pt, objective: Objective, h: float,
                 eps: float = DEFAULT_EPS, g=None) -> np.ndarray:
    """Full-weight gradient descent: W - h grad(W); ``g`` is grad(W) when
    known. Ignores ``w_pt`` and ``eps``."""
    return w - h * (objective.grad(w) if g is None else g)


@dataclass(frozen=True)
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
    # Built per call, as perfbench's tracer and tests patch solvers.<name>_step.
    return {
        Scheme.ODE_EULER: ode_euler_step,
        Scheme.ODE_RK2: ode_rk2_step,
        Scheme.ODE_RK4: ode_rk4_step,
        Scheme.CLASSICAL_GD: classical_gd_step,
        Scheme.RIEMANNIAN: riemannian_step,
        Scheme.LORA_PRO: lorapro_step,
        Scheme.FULL_FT: full_ft_step,
    }[scheme]


def run_trajectory(
    start: LoRAFactors,
    objective: Objective,
    config: SolverConfig,
    w_pt: np.ndarray,
    *,
    log_eps_ratio: bool = True,
    log_balance: bool = True,
) -> TrajectoryLog:
    """Iterate the configured stepper, logging one row per state.

    Every scheme starts from the factors ``start`` on the frozen base
    weight ``w_pt``; FULL_FT steps the dense weight ``W_pt + B A``, which
    it builds from them. A start of any other type raises ``TypeError``.
    Divergence (loss above DIVERGENCE_LOSS, a non-finite state, or a step
    that fails a factorization) is recorded, not raised: the log gets its
    final row, with a ``nan`` gradient norm, and ``diverged`` is set. Any
    other exception, a plain ``ValueError`` included, propagates. A logged
    row reads ``objective.evaluate`` once (``loss`` and ``grad`` for
    FULL_FT), and the gradient it logs is the next step's first-stage
    gradient: the sides for a factor step, G for ``full_ft_step``. The
    null-space ratio and the balance defect are computed only when their
    ``log_*`` flag is set, and never for FULL_FT; otherwise their fields
    stay ``None``.
    """
    if not isinstance(start, LoRAFactors):
        raise TypeError("run_trajectory takes a LoRAFactors start")
    log = TrajectoryLog()
    full = config.scheme is Scheme.FULL_FT
    state = effective_weight(w_pt, start) if full else start

    def halt(i: int, loss: float) -> None:
        log.rows.append(
            TrajectoryRow(i, loss, float("nan"), None, None, None, time.perf_counter_ns())
        )
        log.diverged = True

    def record(i: int):
        """Append a row for the current state and return the gradient the
        next step starts from; None halts the run."""
        w = state if full else effective_weight(w_pt, state)
        if not np.all(np.isfinite(w)):
            halt(i, float("nan"))
            return None
        if full:
            loss, g = float(objective.loss(w)), objective.grad(w)
            first = g
        else:
            loss, g, first = objective.evaluate(state, w_pt)
        if not np.isfinite(loss) or loss > DIVERGENCE_LOSS:
            halt(i, loss)
            return None
        defect = ratio = dist = None
        if not full and log_balance:
            defect = balance_defect(state)
        if not full and log_eps_ratio:
            try:
                ratio = eps_ratio(state, g, config.eps_reg)
            except ZeroGradient:
                ratio = 0.0
        if objective.optimum_w is not None:
            dist = float(np.linalg.norm(w - objective.optimum_w))
        log.rows.append(
            TrajectoryRow(i, loss, float(np.linalg.norm(g)), defect, ratio, dist,
                          time.perf_counter_ns())
        )
        return first

    step = _step_for(config.scheme)
    with np.errstate(over="ignore", invalid="ignore"):
        g = record(0)
        for i in range(1, config.iterations + 1):
            if g is None:
                break
            try:
                state = step(state, w_pt, objective, config.step_size, config.eps_reg, g)
            except DIVERGENCE_ERRORS:
                # A blown-up state reached the kernel; record as divergence.
                halt(i, float("nan"))
                break
            g = record(i)
    return log

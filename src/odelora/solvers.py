"""Time discretizations of the balanced adapter flow, plus baselines.

Every factor scheme is one explicit Runge–Kutta engine driven by a
direction function ``(factors, g, eps) -> (f_a, f_b)`` of the full-weight
gradient at a stage. The flow steppers (Euler, Heun/RK2, classical RK4)
run the engine with the balanced field ``field_eval`` and their Butcher
tableaux, re-evaluating the field at each stage's effective weight
``W_pt + B A``. The factor baselines are one-stage (Euler) runs of their
own directions: plain factor gradient descent, Gram-preconditioned
descent, and the gradient-matching update with zero gauge (the X = 0
member of the same solution family as the Euler flow step). Full-weight
gradient descent steps the dense weight instead. All steppers are pure
functions from state to state and every factor step takes
``(factors, w_pt, objective, h, eps, g=None)``; ``run_trajectory`` iterates
one of them and logs per-iteration diagnostics. A step given ``g``, the
gradient at its start state, uses it as the first stage's gradient instead
of evaluating it again; ``run_trajectory`` passes the one it just logged.
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
    effective_weight,
    field_eval,
)
from .linalg import (
    DegenerateSpectrum,
    NoConvergence,
    NonFiniteState,
    NotPositiveDefinite,
    as_matrix,
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
# factor, gradient or Gram norm, or a failed factorization.
DIVERGENCE_ERRORS = (
    NonFiniteState,
    NotPositiveDefinite,
    DegenerateSpectrum,
    NoConvergence,
    np.linalg.LinAlgError,
    FloatingPointError,
)


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
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.eps_reg < 0:
            raise ValueError("eps_reg must be nonnegative")


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


def _flow_direction(factors: LoRAFactors, g: np.ndarray, eps: float):
    k = field_eval(factors, g, eps)
    return k.f_a, k.f_b


def _factor_gradient(factors: LoRAFactors, g: np.ndarray, eps: float):
    """Composite-loss gradients B^T G in A and G A^T in B, negated; ``eps``
    plays no part."""
    return -(factors.b.T @ g), -(g @ factors.a.T)


def _riemannian_direction(factors: LoRAFactors, g: np.ndarray, eps: float):
    grams = FactorGrams(factors, eps)
    return -grams.solve_b(factors.b.T @ g), -grams.solve_a((g @ factors.a.T).T).T


def lorapro_direction(
    factors: LoRAFactors, g: np.ndarray, eps: float = DEFAULT_EPS
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-matching direction with zero gauge (X = 0):
    dA = -(B^T B + eps I)^{-1} B^T G, dB = -P_B^null G A^T (A A^T + eps I)^{-1}."""
    g = as_matrix(g, "G")
    grams = FactorGrams(factors, eps)
    da = -grams.solve_b(factors.b.T @ g)
    return da, -grams.project_out_b(grams.solve_a((g @ factors.a.T).T).T)


def _method_for(scheme: Scheme):
    """(tableau, direction) of a factor scheme.

    Built per call, so that a replaced module-level direction is seen.
    """
    return {
        Scheme.ODE_EULER: (EULER, _flow_direction),
        Scheme.ODE_RK2: (HEUN, _flow_direction),
        Scheme.ODE_RK4: (RK4, _flow_direction),
        Scheme.CLASSICAL_GD: (EULER, _factor_gradient),
        Scheme.RIEMANNIAN: (EULER, _riemannian_direction),
        Scheme.LORA_PRO: (EULER, lorapro_direction),
    }[scheme]


def _rk_stages(scheme: Scheme, factors: LoRAFactors, w_pt, objective: Objective, h, eps,
               g=None):
    """The scheme's tableau and the stage fields ``[(f_a, f_b), ...]`` of one step.

    ``g`` is the gradient at ``factors``' effective weight when the caller
    already has it; it is released once the first stage has used it.
    """
    tableau, direction = _method_for(scheme)
    if g is None:
        g = objective.grad(effective_weight(w_pt, factors))
    stages = [direction(factors, g, eps)]
    del g
    for c in tableau.subdiagonal:
        state = factors.move(*stages[-1], c * h)
        stages.append(direction(state, objective.grad(effective_weight(w_pt, state)), eps))
    return tableau, stages


def _rk_step(scheme: Scheme, factors: LoRAFactors, w_pt, objective: Objective, h, eps, g):
    tableau, stages = _rk_stages(scheme, factors, w_pt, objective, h, eps, g)
    total = [tableau.weights[0] * part for part in stages[0]]
    for b, stage in zip(tableau.weights[1:], stages[1:]):
        total = [acc + b * part for acc, part in zip(total, stage)]
    return factors.move(*(acc / tableau.denominator for acc in total), h)


def ode_euler_step(factors: LoRAFactors, w_pt, objective: Objective, h: float,
                   eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """One forward-Euler step of the balanced flow."""
    return _rk_step(Scheme.ODE_EULER, factors, w_pt, objective, h, eps, g)


def ode_rk2_step(factors: LoRAFactors, w_pt, objective: Objective, h: float,
                 eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """One Heun (two-stage, second-order) step of the balanced flow."""
    return _rk_step(Scheme.ODE_RK2, factors, w_pt, objective, h, eps, g)


def ode_rk4_step(factors: LoRAFactors, w_pt, objective: Objective, h: float,
                 eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """One classical four-stage RK4 step of the balanced flow."""
    return _rk_step(Scheme.ODE_RK4, factors, w_pt, objective, h, eps, g)


def classical_gd_step(factors: LoRAFactors, w_pt, objective: Objective, h: float,
                      eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """Plain gradient descent on the factors (B^T G in A, G A^T in B); ignores ``eps``."""
    return _rk_step(Scheme.CLASSICAL_GD, factors, w_pt, objective, h, eps, g)


def riemannian_step(factors: LoRAFactors, w_pt, objective: Objective, h: float,
                    eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """Gram-preconditioned factor descent:
    A' = A - h (B^T B + eps I)^{-1} B^T G, B' = B - h G A^T (A A^T + eps I)^{-1}."""
    return _rk_step(Scheme.RIEMANNIAN, factors, w_pt, objective, h, eps, g)


def lorapro_step(factors: LoRAFactors, w_pt, objective: Objective, h: float,
                 eps: float = DEFAULT_EPS, g=None) -> LoRAFactors:
    """One step along the zero-gauge gradient-matching direction."""
    return _rk_step(Scheme.LORA_PRO, factors, w_pt, objective, h, eps, g)


def full_ft_step(w: np.ndarray, objective: Objective, h: float, g=None) -> np.ndarray:
    """Full-weight gradient descent: W - h grad(W); ``g`` is grad(W) when known."""
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
    return {
        Scheme.ODE_EULER: ode_euler_step,
        Scheme.ODE_RK2: ode_rk2_step,
        Scheme.ODE_RK4: ode_rk4_step,
        Scheme.CLASSICAL_GD: classical_gd_step,
        Scheme.RIEMANNIAN: riemannian_step,
        Scheme.LORA_PRO: lorapro_step,
    }[scheme]


def run_trajectory(
    init,
    objective: Objective,
    config: SolverConfig,
    w_pt: np.ndarray | None = None,
    *,
    log_eps_ratio: bool = True,
    log_balance: bool = True,
) -> TrajectoryLog:
    """Iterate the configured stepper, logging one row per state.

    ``init`` is a LoRAFactors for factor schemes (with ``w_pt`` the frozen
    base weight) or the full weight matrix for FULL_FT. Divergence (loss
    above DIVERGENCE_LOSS, a non-finite state, or a step that fails a
    factorization) is recorded, not raised: the log gets its final row,
    with a ``nan`` gradient norm, and ``diverged`` is set. Any other
    exception, a plain ``ValueError`` included, propagates. The gradient
    logged at a state is the next step's first-stage gradient. The
    null-space ratio and the balance defect are computed only when their
    ``log_*`` flag is set; otherwise their fields stay ``None``.
    """
    log = TrajectoryLog()
    full = config.scheme is Scheme.FULL_FT
    if full:
        w = np.asarray(init, dtype=np.float64)
    else:
        if not isinstance(init, LoRAFactors):
            raise TypeError("factor schemes take a LoRAFactors initial state")
        if w_pt is None:
            raise ValueError("factor schemes require the frozen base weight w_pt")
        factors = init

    def halt(i: int, loss: float) -> None:
        log.rows.append(
            TrajectoryRow(i, loss, float("nan"), None, None, None, time.perf_counter_ns())
        )
        log.diverged = True

    def record(i: int):
        """Append a row for the current state and return its gradient;
        None halts the run."""
        state_w = w if full else effective_weight(w_pt, factors)
        finite = bool(np.all(np.isfinite(state_w)))
        loss = float(objective.loss(state_w)) if finite else float("nan")
        if not np.isfinite(loss) or loss > DIVERGENCE_LOSS:
            halt(i, loss)
            return None
        g = objective.grad(state_w)
        grad_norm = float(np.linalg.norm(g))
        defect = ratio = None
        if not full and log_balance:
            defect = balance_defect(factors)
        if not full and log_eps_ratio:
            try:
                ratio = eps_ratio(factors, g, config.eps_reg)
            except ZeroGradient:
                ratio = 0.0
        dist = None
        if objective.optimum_w is not None:
            dist = float(np.linalg.norm(state_w - objective.optimum_w))
        log.rows.append(
            TrajectoryRow(i, loss, grad_norm, defect, ratio, dist,
                          time.perf_counter_ns())
        )
        return g

    g = record(0)
    if g is None:
        return log
    step = None if full else _step_for(config.scheme)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, config.iterations + 1):
            try:
                if full:
                    w = full_ft_step(w, objective, config.step_size, g)
                else:
                    factors = step(factors, w_pt, objective, config.step_size,
                                   config.eps_reg, g)
            except DIVERGENCE_ERRORS:
                # A blown-up state reached the kernel; record as divergence.
                halt(i, float("nan"))
                break
            g = record(i)
            if g is None:
                break
    return log

"""Adapter state, objectives, and the balanced update field.

The model weight is ``W = W_pt + B A`` with thin factors A (r x n) and
B (m x r). The update field F(A, B) is the pair of factor velocities that
best matches the negative full-weight gradient while keeping the factor
pair on the balanced manifold ``A A^T = B^T B``. It is computed in closed
form: the unconstrained gradient-matching family is parameterized by an
r x r gauge matrix X, and the balance constraint picks X as the solution
of the symmetric Sylvester equation

    H X + X H = (B^T B)^{-1} B^T G A^T + A G^T B (B^T B)^{-1},
    H = A A^T + B^T B,

where G is the full-weight gradient. All Gram inverses carry an optional
Tikhonov term ``eps * I`` so the field stays defined near rank-deficient
factors (e.g. the zero-B start); H then gains ``2 eps * I``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix, cholesky_solve, sylvester_spd

__all__ = [
    "DEFAULT_EPS",
    "LoRAFactors",
    "Objective",
    "FieldEval",
    "effective_weight",
    "gram_a",
    "gram_b",
    "field_eval",
    "flow_rhs_full",
]

# Default Tikhonov regularization of the factor Gram matrices.
DEFAULT_EPS = 1e-8


@dataclass(frozen=True)
class LoRAFactors:
    """Immutable adapter pair: A is r x n, B is m x r, r <= min(m, n)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "A")
        b = as_matrix(self.b, "B")
        r, n = a.shape
        m, rb = b.shape
        if r != rb:
            raise ValueError(f"rank mismatch: A is {a.shape}, B is {b.shape}")
        if r > min(m, n):
            raise ValueError(f"rank {r} exceeds min(m, n) = {min(m, n)}")
        a = a.copy()
        b = b.copy()
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """Shape (m, n) of the effective weight delta B A."""
        return self.b.shape[0], self.a.shape[1]

    def delta(self) -> np.ndarray:
        """The low-rank weight update B A, recomputed on demand."""
        return self.b @ self.a

    def move(self, f_a: np.ndarray, f_b: np.ndarray, h: float) -> "LoRAFactors":
        """Return the factors displaced by h along the direction (f_a, f_b)."""
        return LoRAFactors(self.a + h * f_a, self.b + h * f_b)


def effective_weight(w_pt: np.ndarray, factors: LoRAFactors) -> np.ndarray:
    """W = W_pt + B A, recomputed per call (no cached state)."""
    return w_pt + factors.delta()


class Objective:
    """Differentiable scalar objective over dense weight matrices.

    Subclasses implement ``loss`` and ``grad``; ``optimum_loss`` and
    ``optimum_w`` are set when the minimizer is known in closed form.
    """

    optimum_loss: float | None = None
    optimum_w: np.ndarray | None = None

    def loss(self, w: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class FieldEval(NamedTuple):
    """One evaluation of the update field: factor velocities and the gauge."""

    f_a: np.ndarray
    f_b: np.ndarray
    x: np.ndarray


def gram_a(factors: LoRAFactors, eps: float = 0.0) -> np.ndarray:
    """A A^T + eps I (r x r)."""
    a = factors.a
    return a @ a.T + eps * np.eye(factors.rank)


def gram_b(factors: LoRAFactors, eps: float = 0.0) -> np.ndarray:
    """B^T B + eps I (r x r)."""
    b = factors.b
    return b.T @ b + eps * np.eye(factors.rank)


def _project_out_b(factors: LoRAFactors, gb: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply the column-space annihilator of B to w without forming it."""
    b = factors.b
    return w - b @ cholesky_solve(gb, b.T @ w)


def field_eval(factors: LoRAFactors, g: np.ndarray, eps: float = 0.0) -> FieldEval:
    """Evaluate the balanced update field at the given full-weight gradient.

    Returns (F_A, F_B, X) where

        F_A = -(B^T B + eps I)^{-1} B^T G + X A
        F_B = -P_B^null G A^T (A A^T + eps I)^{-1} - B X

    and X solves the symmetric Sylvester equation stated in the module
    docstring (with H = A A^T + B^T B + 2 eps I when regularized).
    """
    g = as_matrix(g, "G")
    if g.shape != factors.shape:
        raise ValueError(f"gradient shape {g.shape} != weight shape {factors.shape}")
    a, b = factors.a, factors.b
    ga = gram_a(factors, eps)
    gb = gram_b(factors, eps)
    h = ga + gb

    bt_g = b.T @ g
    t = cholesky_solve(gb, bt_g @ a.T)
    x = sylvester_spd(h, t + t.T)

    f_a = -cholesky_solve(gb, bt_g) + x @ a
    g_at_inv = cholesky_solve(ga, (g @ a.T).T).T
    f_b = -_project_out_b(factors, gb, g_at_inv) - b @ x
    return FieldEval(f_a, f_b, x)


def flow_rhs_full(factors: LoRAFactors, g: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Effective full-weight velocity -G + P_B^null G P_A^null.

    This equals B F_A + F_B A for the field above (exactly, for any eps),
    i.e. the induced weight dynamic is the negative gradient up to the
    component trapped in both factor null spaces.
    """
    g = as_matrix(g, "G")
    a = factors.a
    gb = gram_b(factors, eps)
    left = _project_out_b(factors, gb, g)
    both = left - (cholesky_solve(gram_a(factors, eps), (left @ a.T).T).T @ a)
    return -g + both

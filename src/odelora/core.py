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

``FactorGrams`` builds both regularized Grams of one state and factors each
once; the field, the flow's full-weight velocity and the null-space ratio
are a few products on top of it. Inputs are validated at the boundary
(``LoRAFactors`` and the gradient check in ``field_eval``), not inside each
solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix, cho_factor, cho_solve, sylvester_eig

__all__ = [
    "DEFAULT_EPS",
    "LoRAFactors",
    "Objective",
    "FieldEval",
    "FactorGrams",
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


class FactorGrams:
    """The regularized Grams of one factor state, each Cholesky-factored once.

    Holds ``G_A = A A^T + eps I`` and ``G_B = B^T B + eps I`` (r x r) and
    applies their inverses by two triangular solves per product. B's Gram
    is factored first. Construction raises NotPositiveDefinite when a pivot
    fails ``linalg.cho_factor``'s rule and NonFiniteState when a Gram or its
    norm is not finite; the factors themselves are trusted, because
    ``LoRAFactors`` validated them.
    """

    def __init__(self, factors: LoRAFactors, eps: float = 0.0):
        self.a, self.b = factors.a, factors.b
        self.ga = gram_a(factors, eps)
        self.gb = gram_b(factors, eps)
        self._chol_b = cho_factor(self.gb)
        self._chol_a = cho_factor(self.ga)

    def solve_a(self, rhs: np.ndarray) -> np.ndarray:
        """(A A^T + eps I)^{-1} rhs."""
        return cho_solve(self._chol_a, rhs)

    def solve_b(self, rhs: np.ndarray) -> np.ndarray:
        """(B^T B + eps I)^{-1} rhs."""
        return cho_solve(self._chol_b, rhs)

    def project_out_b(self, w: np.ndarray) -> np.ndarray:
        """P_B^null w, the column-space annihilator of B applied without forming it."""
        return w - self.b @ self.solve_b(self.b.T @ w)

    def project_out_both(self, g: np.ndarray) -> np.ndarray:
        """P_B^null G P_A^null, the part of G trapped in both factor null spaces."""
        left = self.project_out_b(g)
        return left - (self.solve_a((left @ self.a.T).T).T @ self.a)

    def gauge(self, c: np.ndarray) -> np.ndarray:
        """Solve H X + X H = C with H = G_A + G_B, for symmetric C."""
        return sylvester_eig(self.ga + self.gb, c)


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
    grams = FactorGrams(factors, eps)
    bt_g = b.T @ g
    t = grams.solve_b(bt_g @ a.T)
    x = grams.gauge(t + t.T)
    f_a = -grams.solve_b(bt_g) + x @ a
    f_b = -grams.project_out_b(grams.solve_a((g @ a.T).T).T) - b @ x
    return FieldEval(f_a, f_b, x)


def flow_rhs_full(factors: LoRAFactors, g: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Effective full-weight velocity -G + P_B^null G P_A^null.

    This equals B F_A + F_B A for the field above (exactly, for any eps),
    i.e. the induced weight dynamic is the negative gradient up to the
    component trapped in both factor null spaces.
    """
    g = as_matrix(g, "G")
    return -g + FactorGrams(factors, eps).project_out_both(g)

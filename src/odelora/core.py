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

The field, every factor direction in ``solvers`` and the null-space ratio
in ``metrics`` read G only through its two sides ``B^T G`` (r x n) and
``G A^T`` (m x r). ``field_eval`` takes them and the state's
``FactorGrams``; ``Objective.sides`` returns them at a factor state, and
an objective with low-rank structure computes them without forming G.

``FactorGrams`` builds both regularized Grams of one state and their inverse
Cholesky factors once; the field, the baselines' directions and the
null-space ratio are a few products on top of it, and none projects an
m x n matrix. Inputs are validated at the boundary (``LoRAFactors``), not
inside each solve, and only the kernel refuses a state (see ``Objective``).

A state may be a stack of k states along a leading axis: A is (k, r, n) and
B is (k, m, r), and every array derived from it (sides, Grams, field, G)
carries the same leading axis. The code is written once, with ``.mT`` and
``[..., :, None]`` broadcasting, so an unstacked state is the plain case of
it, and each slice of a stacked result is bit-for-bit the result of that
slice alone. A measurement that is one number per state (a loss, a defect,
a ratio) is a float at an unstacked state and a (k,) array at a stacked
one. Its dot products and norms are one stacked product (``slice_dots``,
``slice_norms``), and every ``Objective`` method reads a stack in one call.
``solvers.run_stack`` steps such stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix, inverse_cholesky, sylvester_eig

__all__ = [
    "DEFAULT_EPS",
    "LoRAFactors",
    "Objective",
    "Sides",
    "StateEval",
    "FieldEval",
    "FactorGrams",
    "effective_weight",
    "gram_a",
    "gram_b",
    "field_eval",
    "slice_dots",
    "slice_norms",
]

# Default Tikhonov regularization of the factor Gram matrices.
DEFAULT_EPS = 1e-8


@dataclass(frozen=True)
class LoRAFactors:
    """Immutable adapter pair: A is r x n, B is m x r, r <= min(m, n).

    A stack of k pairs of one shape has A (k, r, n) and B (k, m, r).
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "A", stack=True)
        b = as_matrix(self.b, "B", stack=True)
        if a.shape[:-2] != b.shape[:-2]:
            raise ValueError(f"stack mismatch: A is {a.shape}, B is {b.shape}")
        r, n = a.shape[-2:]
        m, rb = b.shape[-2:]
        if r != rb:
            raise ValueError(f"rank mismatch: A is {a.shape}, B is {b.shape}")
        if r < 1:
            raise ValueError(f"rank {r} is below 1: A is {a.shape}, B is {b.shape}")
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
        return self.a.shape[-2]

    @property
    def shape(self) -> tuple[int, int]:
        """Shape (m, n) of the effective weight delta B A."""
        return self.b.shape[-2], self.a.shape[-1]

    @property
    def stacked(self) -> bool:
        return self.a.ndim == 3

    def take(self, index) -> "LoRAFactors":
        """The slices ``index`` of a stack: one state for an int, a stack for a
        list, a mask or a slice. A slice of a checked stack needs no check,
        so the parts are neither checked nor copied again: a slice index
        gives read-only views."""
        part = object.__new__(LoRAFactors)
        for name, x in (("a", self.a[index]), ("b", self.b[index])):
            x.setflags(write=False)
            object.__setattr__(part, name, x)
        return part

    def delta(self) -> np.ndarray:
        """The low-rank weight update B A, recomputed on demand."""
        return self.b @ self.a

    def move(self, f_a: np.ndarray, f_b: np.ndarray, h) -> "LoRAFactors":
        """Return the factors displaced by h along the direction (f_a, f_b);
        a stack takes one h per slice as a (k, 1, 1) array."""
        return LoRAFactors(self.a + h * f_a, self.b + h * f_b)


def effective_weight(w_pt: np.ndarray, factors: LoRAFactors) -> np.ndarray:
    """W = W_pt + B A, recomputed per call (no cached state)."""
    w = factors.delta()
    w += w_pt  # numpy reuses B A's buffer for w_pt + B A only when their shapes match
    return w


def slice_dots(x: np.ndarray, y: np.ndarray):
    """``np.vdot(x_j, y_j)`` of each pair of matrix slices, as one stacked
    product: a float for two matrices, a (k,) array for two stacks.

    Each slice pair is flattened in C order and multiplied as a row by a
    column, which numpy's ``matmul`` hands to the same dot product that
    ``np.vdot`` (and ``np.linalg.norm``, on a C-contiguous matrix) calls,
    so each slice gets the bits of that call alone.
    """
    lead = x.shape[:-2]
    dots = (x.reshape(*lead, 1, -1) @ y.reshape(*lead, -1, 1))[..., 0, 0]
    return dots if lead else float(dots)


def slice_norms(x: np.ndarray):
    """``np.linalg.norm`` of each C-contiguous matrix slice: the square root of
    ``slice_dots(x, x)``."""
    norms = np.sqrt(slice_dots(x, x))
    return norms if norms.ndim else float(norms)


class Sides(NamedTuple):
    """The two sides of a full-weight gradient G at a factor state."""

    bt_g: np.ndarray  # B^T G, r x n
    g_at: np.ndarray  # G A^T, m x r

    def take(self, index) -> "Sides":
        """The sides of the stack slices ``index``."""
        return Sides(self.bt_g[index], self.g_at[index])


class StateEval(NamedTuple):
    """What a logged row reads at a factor state: loss, gradient and sides."""

    loss: float  # a (k,) array at a stacked state
    grad: np.ndarray
    sides: Sides


class Objective:
    """Differentiable scalar objective over dense weight matrices.

    Subclasses set ``w_pt``, the frozen base weight, and implement four
    methods that each read one W or a stack of k in one call, every slice
    getting the bits it gets alone: ``loss`` and ``grad`` of W, and ``sides``
    and ``evaluate`` at a factor state ``W = W_pt + B A``. An objective whose
    residual is cheap in factor form never forms an m x n matrix in ``sides``.
    ``optimum_*`` are set when the minimizer is known in closed form, and
    ``dist_to_opt`` reads the distance to it at a factor state. At a finite
    factor state ``sides`` and ``evaluate`` return and never raise: a G that
    is not finite reaches the engine as non-finite sides, which
    ``LoRAFactors`` refuses at the next stage state, and a logged row with a
    loss above ``solvers.DIVERGENCE_LOSS``, which halts that slice.
    """

    w_pt: np.ndarray | None = None
    optimum_loss: float | None = None
    optimum_w: np.ndarray | None = None

    def loss(self, w: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sides(self, factors: LoRAFactors) -> Sides:
        """``(B^T G, G A^T)`` with G the gradient at ``W_pt + B A``."""
        raise NotImplementedError

    def evaluate(self, factors: LoRAFactors) -> StateEval:
        """Loss, gradient and sides at ``W_pt + B A``, for a logged row."""
        raise NotImplementedError

    def dist_to_opt(self, factors: LoRAFactors):
        """``||W_pt + B A - W*||_F`` at a factor state, a (k,) array at a stack;
        None when ``optimum_w`` is unknown. This default forms W and
        subtracts ``optimum_w`` from it in place."""
        if self.optimum_w is None:
            return None
        w = effective_weight(self.w_pt, factors)
        return slice_norms(np.subtract(w, self.optimum_w, out=w))


class FieldEval(NamedTuple):
    """One evaluation of the update field: factor velocities and the gauge."""

    f_a: np.ndarray
    f_b: np.ndarray
    x: np.ndarray


def _regularized(gram: np.ndarray, eps: float) -> np.ndarray:
    """``gram + eps I``, with eps added to the fresh product's diagonal in
    place, and no add at all when eps is 0."""
    if eps:
        np.einsum("...ii->...i", gram)[...] += eps
    return gram


def gram_a(factors: LoRAFactors, eps: float = 0.0) -> np.ndarray:
    """A A^T + eps I (r x r)."""
    a = factors.a
    return _regularized(a @ a.mT, eps)


def gram_b(factors: LoRAFactors, eps: float = 0.0) -> np.ndarray:
    """B^T B + eps I (r x r)."""
    b = factors.b
    return _regularized(b.mT @ b, eps)


class FactorGrams:
    """The regularized Grams of one factor state, or of each slice of a stack,
    and their inverse Cholesky factors.

    Holds ``G_A = A A^T + eps I`` and ``G_B = B^T B + eps I`` (r x r), built
    by ``gram_a`` and ``gram_b``; inverts both lower Cholesky factors in one
    ``linalg.inverse_cholesky`` call, which raises NotPositiveDefinite or
    NonFiniteState; and applies each Gram's inverse as two products,
    ``L^{-T} (L^{-1} rhs)``. The factors are trusted (``LoRAFactors``
    validated them).
    """

    def __init__(self, factors: LoRAFactors, eps: float = 0.0):
        self.b = factors.b
        self.gb, self.ga = gram_b(factors, eps), gram_a(factors, eps)
        self._inv_b, self._inv_a = inverse_cholesky(np.array((self.gb, self.ga)))

    def take(self, index) -> "FactorGrams":
        """The Grams of the stack slices ``index``, with no new factorization."""
        part = object.__new__(FactorGrams)
        part.__dict__.update((name, x[index]) for name, x in self.__dict__.items())
        return part

    def solve_a(self, rhs: np.ndarray) -> np.ndarray:
        """(A A^T + eps I)^{-1} rhs."""
        return self._inv_a.mT @ (self._inv_a @ rhs)

    def solve_b(self, rhs: np.ndarray) -> np.ndarray:
        """(B^T B + eps I)^{-1} rhs."""
        return self._inv_b.mT @ (self._inv_b @ rhs)

    def project_out_b(self, w: np.ndarray) -> np.ndarray:
        """P_B^null w, the column-space annihilator of B applied without forming it."""
        return w - self.b @ self.solve_b(self.b.mT @ w)

    def gauge(self, c: np.ndarray) -> np.ndarray:
        """Solve H X + X H = C with H = G_A + G_B, for symmetric C."""
        return sylvester_eig(self.ga + self.gb, c)


def field_eval(factors: LoRAFactors, sides: Sides, grams: FactorGrams) -> FieldEval:
    """The balanced update field (F_A, F_B, X) from the gradient's sides
    ``(B^T G, G A^T)`` and the state's ``FactorGrams(factors, eps)``:

        F_A = -(B^T B + eps I)^{-1} B^T G + X A
        F_B = -P_B^null G A^T (A A^T + eps I)^{-1} - B X

    with X the Sylvester gauge of the module docstring (H gains 2 eps I).
    Both solves with B's Gram share one call on their stacked right-hand
    sides, which gives each column what a separate solve gives.
    """
    a, b = factors.a, factors.b
    bt_g, g_at = sides
    r = factors.rank
    both = grams.solve_b(np.concatenate([bt_g @ a.mT, bt_g], axis=-1))
    t = both[..., :r]
    x = grams.gauge(t + t.mT)
    f_a = -both[..., r:] + x @ a
    f_b = -grams.project_out_b(grams.solve_a(g_at.mT).mT) - b @ x
    return FieldEval(f_a, f_b, x)

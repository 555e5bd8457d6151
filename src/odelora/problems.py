"""Benchmark objectives with exact gradients, and adapter initializers.

Instances are generated from 64-bit seeds through numpy's PCG64 generator
(``np.random.default_rng``), so every problem is reproducible from its
dimensions and seed alone.

The sensing operator is constructed with a globally bounded spectrum: all
singular values lie in [sqrt(1-delta), sqrt(1+delta)] with the endpoints
attained, so ``(1-delta)||W||_F^2 <= ||W S||_F^2 <= (1+delta)||W||_F^2``
holds for every W (not just low-rank ones, and not just with high
probability) and the restricted-isometry constant is exactly delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import LoRAFactors, Objective, Sides, StateEval, effective_weight, slice_dots
from .linalg import as_matrix, thin_svd

__all__ = [
    "InvalidDelta",
    "SensingProblem",
    "RegressionProblem",
    "RegressionStack",
    "SensingObjective",
    "QuadraticObjective",
    "RegressionObjective",
    "make_rip_sensing",
    "make_sensing_instance",
    "sensing_objective",
    "quadratic_objective",
    "regression_objective",
    "balanced_init",
    "zero_b_init",
    "aligned_zero_b_init",
    "make_regression_instance",
    "make_regression_stack",
    "perturbed_balanced_init",
    "perturbed_target_init",
]


class InvalidDelta(Exception):
    """The restricted-isometry constant must lie in [0, 1)."""


@dataclass(frozen=True)
class SensingProblem:
    """Noiseless low-rank sensing instance: Y = (W_pt + B* A*) S exactly."""

    s: np.ndarray        # n x o sensing matrix
    y: np.ndarray        # m x o observations
    w_pt: np.ndarray     # m x n frozen base weight
    a_star: np.ndarray   # r x n ground-truth factor
    b_star: np.ndarray   # m x r ground-truth factor
    delta: float

    @property
    def rank(self) -> int:
        return self.a_star.shape[0]


@dataclass(frozen=True)
class RegressionProblem:
    """Single feature-label pair with unit feature and unit residual."""

    s: np.ndarray        # n-vector, ||s|| = 1
    y: np.ndarray        # m-vector
    w_pt: np.ndarray     # m x n


@dataclass(frozen=True)
class RegressionStack:
    """k regression instances of one shape, kept as what a factor state reads
    of them: features ``s`` (k, n) and offsets ``W_pt s - y`` (k, m); or one
    instance, with s (n,) and its offset (m,). The dense base weights are
    not kept.
    """

    s: np.ndarray
    offset: np.ndarray

    def take(self, index) -> "RegressionStack":
        """The instances ``index`` of the stack: one instance for an int."""
        return RegressionStack(self.s[index], self.offset[index])


def _seeded_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix: QR of a Gaussian with R's diagonal forced
    positive, so the result is a deterministic function of the draw."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def make_rip_sensing(n: int, o: int, delta: float, seed) -> np.ndarray:
    """Sensing matrix with every singular value in [sqrt(1-d), sqrt(1+d)].

    The smallest and largest draws are pinned to the interval endpoints, so
    the norm bounds are tight and the isometry constant equals delta for
    every rank. Square (o = n) gives two-sided certification; for o < n the
    lower bound is void on the left null space.
    """
    if not 0.0 <= delta < 1.0:
        raise InvalidDelta(f"delta must be in [0, 1), got {delta}")
    if o > n:
        raise ValueError(f"o = {o} > n = {n} is not supported")
    rng = np.random.default_rng(seed)
    u = _seeded_orthogonal(n, rng)
    v = _seeded_orthogonal(o, rng)
    k = min(n, o)
    lo, hi = np.sqrt(1.0 - delta), np.sqrt(1.0 + delta)
    sigma = rng.uniform(lo, hi, size=k)
    sigma[np.argmin(sigma)] = lo
    sigma[np.argmax(sigma)] = hi
    return (u[:, :k] * sigma) @ v[:, :k].T


def _unit_balanced_truth(rng: np.random.Generator, m: int, n: int, r: int) -> LoRAFactors:
    """Balanced factors of ``L R / sigma_r(L R)`` for Gaussian L (m x r),
    drawn first, and R (r x n).

    The SVD of the product comes from its factors: with thin QRs
    ``L = Q_L R_L`` and ``R^T = Q_R R_R`` and the r x r SVD
    ``R_L R_R^T = U' S V'^T``, ``L R = (Q_L U') S (Q_R V')^T``. The split
    ``A* = root (Q_R V')^T``, ``B* = (Q_L U') root`` with
    ``root = sqrt(S / S[r-1])`` is balanced, with smin(A*) = smin(B*) = 1,
    at O((m + n) r^2) cost and without forming the m x n product.
    """
    left = rng.standard_normal((m, r))
    right = rng.standard_normal((r, n))
    q_left, r_left = np.linalg.qr(left)
    q_right, r_right = np.linalg.qr(right.T)
    u, sigma, vt = np.linalg.svd(r_left @ r_right.T)
    root = np.sqrt(sigma / sigma[r - 1])
    return LoRAFactors(a=root[:, None] * (q_right @ vt.T).T, b=(q_left @ u) * root)


def make_sensing_instance(
    m: int, n: int, o: int, r: int, delta: float, seed
) -> SensingProblem:
    """Seeded sensing instance with balanced ground-truth factors.

    The ground-truth factors are the balanced factorization of a random
    rank-r product ``L R`` of Gaussian factors, rescaled so
    smin(A*) = smin(B*) = 1, which makes the initialization certificate
    directly interpretable. They are built in factor form, from thin QRs
    of L and R^T and one r x r SVD, in O((m + n) r^2); the n x n QRs of
    ``make_rip_sensing`` are the build's only dense factorizations.
    """
    rng = np.random.default_rng(seed)
    s = make_rip_sensing(n, o, delta, rng)
    w_pt = rng.standard_normal((m, n)) / np.sqrt(n)
    star = _unit_balanced_truth(rng, m, n, r)
    y = (w_pt + star.b @ star.a) @ s
    return SensingProblem(s=s, y=y, w_pt=w_pt, a_star=star.a, b_star=star.b, delta=delta)


class _ResidualObjective(Objective):
    """An objective of the residual ``W s - y``, with s a matrix or a vector.

    At a factor state the residual is ``C0 + B (A s)``, where
    ``C0 = W_pt s - y`` is built on first use and kept (on a
    ``RegressionStack``, which keeps no W_pt, C0 is its offsets). Subclasses
    build the loss, gradient and sides from the residual and ``A s``, so
    ``sides`` never forms the m x n gradient; ``SensingObjective`` replaces
    this residual form of the sides with a Gram form where its shapes
    favour it. At a stacked state the residual, ``A s``, gradient, sides and
    loss carry the stack axis. ``_loss_of`` may overwrite the residual it
    is given, so ``evaluate`` takes the loss last.
    """

    def __init__(self, problem):
        self.problem = problem
        self.w_pt = None if isinstance(problem, RegressionStack) else problem.w_pt

    @cached_property
    def _offset(self) -> np.ndarray:
        """``C0 = W_pt s - y``, built on first use."""
        if self.w_pt is None:
            return self.problem.offset
        return self.w_pt @ self.problem.s - self.problem.y

    def _residual(self, factors: LoRAFactors):
        """``(C0 + B (A s), A s)`` at the factor state."""
        a_s = factors.a @ self.problem.s
        resid = factors.b @ a_s
        resid += self._offset  # in place, as in core.effective_weight
        return resid, a_s

    def sides(self, factors: LoRAFactors) -> Sides:
        return self._sides(factors, *self._residual(factors))

    def evaluate(self, factors: LoRAFactors) -> StateEval:
        resid, a_s = self._residual(factors)
        g, sides = self._grad_of(factors, resid, a_s), self._sides(factors, resid, a_s)
        return StateEval(self._loss_of(resid), g, sides)


class SensingObjective(_ResidualObjective):
    """0.5 ||W S - Y||_F^2 with gradient (W S - Y) S^T.

    At a factor state, with R = C0 + B (A S) the residual, the loss is
    ``0.5 ||R||_F^2``, kept in this form because the rate fits read losses
    near round-off. The sides take one of two forms, chosen from the shapes
    alone. The Gram form writes G as ``K + B (A Q)``, with ``K = C0 S^T``
    and ``Q = S S^T`` (n x n) each built on first use and kept,
    and takes ``B^T G = B^T K + (B^T B)(A Q)`` and
    ``G A^T = K A^T + B ((A Q) A^T)``: r (2mn + n^2) work and no m x o
    temporary. The residual form takes ``B^T G = (B^T R) S^T`` and
    ``G A^T = R (A S)^T``: r (3mo + 2no) work. The Gram form is used where
    it costs no more (``gram_form``), which holds at m = n for o above about
    0.6 n, so Q is built only there. ``evaluate`` forms G in the same form
    as its sides, after the loss, and only the dense ``grad`` forms
    ``R S^T``.

    ``dist_to_opt`` reads ``||B A - B* A*||_F``, the distance of
    ``W_pt + B A`` to the optimum ``W* = W_pt + B* A*``, in factor form.
    With the thin QR ``B* = Q* R*`` and ``C* = R* A*``, both built on first
    use and kept, and per state ``P = Q*^T B``, ``E = P A - C*`` and
    ``B_perp = B - Q* P``, the two parts of ``B A - B* A* = Q* E + B_perp A``
    are orthogonal, so its square is ``||E||^2 + <B_perp^T B_perp, A A^T>``,
    the second term clamped at 0. That is O((m + n) r^2) work and no m x n
    array. Each term is a norm of a difference taken before it is squared,
    so neither cancels near the optimum, as a trace expansion of the whole
    ``||B A - B* A*||^2`` would. A slice whose factor form is not finite
    (``P A`` or ``B_perp^T B_perp`` can overflow where ``B A`` does not)
    takes the dense ``||W_pt + B A - W*||``, formed for that slice alone.
    ``optimum_w``, the m x n W*, is built on first use, so a run that reads
    only the factor form never forms it.
    """

    def __init__(self, problem: SensingProblem):
        super().__init__(problem)
        self.optimum_loss = 0.0
        m, o = problem.y.shape
        n = problem.s.shape[0]
        self.gram_form = 2 * m * n + n * n <= 3 * m * o + 2 * n * o

    @cached_property
    def optimum_w(self) -> np.ndarray:
        """``W* = W_pt + B* A*``, built on first use."""
        return self.w_pt + self.problem.b_star @ self.problem.a_star

    @cached_property
    def _s_gram(self) -> np.ndarray:
        """``Q = S S^T``, built on first use."""
        return self.problem.s @ self.problem.s.T

    @cached_property
    def _offset_grad(self) -> np.ndarray:
        """``K = C0 S^T``, built on first use."""
        return self._offset @ self.problem.s.T

    def sides(self, factors: LoRAFactors) -> Sides:
        if not self.gram_form:
            return super().sides(factors)
        return self._gram_sides(factors, self._offset_grad, factors.a @ self._s_gram)

    def evaluate(self, factors: LoRAFactors) -> StateEval:
        if not self.gram_form:
            return super().evaluate(factors)
        loss = self._loss_of(self._residual(factors)[0])
        k, a_q = self._offset_grad, factors.a @ self._s_gram
        g = factors.b @ a_q
        g += k  # in place, as in core.effective_weight
        return StateEval(loss, g, self._gram_sides(factors, k, a_q))

    @cached_property
    def _truth_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """``(Q*, C*)``: the thin QR ``B* = Q* R*`` and ``C* = R* A*``, built on first use."""
        q, r = np.linalg.qr(self.problem.b_star)
        return q, r @ self.problem.a_star

    def dist_to_opt(self, factors: LoRAFactors):
        q, c = self._truth_basis
        a, b = factors.a, factors.b
        p = q.T @ b
        e = p @ a
        e -= c
        b_perp = b - q @ p
        off = slice_dots(b_perp.mT @ b_perp, a @ a.mT)
        dist = np.sqrt(slice_dots(e, e) + np.maximum(off, 0.0))
        if not factors.stacked:
            return float(dist) if np.isfinite(dist) else super().dist_to_opt(factors)
        for j in np.flatnonzero(~np.isfinite(dist)):
            dist[j] = super().dist_to_opt(factors.take(j))
        return dist

    def loss(self, w: np.ndarray) -> float:
        return self._loss_of(w @ self.problem.s - self.problem.y)

    def grad(self, w: np.ndarray) -> np.ndarray:
        return (w @ self.problem.s - self.problem.y) @ self.problem.s.T

    @staticmethod
    def _gram_sides(factors, k, a_q) -> Sides:
        a, b = factors.a, factors.b
        bt_g = b.mT @ k
        bt_g += (b.mT @ b) @ a_q
        g_at = k @ a.mT
        g_at += b @ (a_q @ a.mT)
        return Sides(bt_g, g_at)

    @staticmethod
    def _loss_of(resid):
        """0.5 ||R||_F^2 of each slice of the residual, which is squared in place."""
        resid *= resid
        return 0.5 * np.sum(resid, axis=(-2, -1))

    def _grad_of(self, factors, resid, a_s) -> np.ndarray:
        g = factors.b @ (a_s @ self.problem.s.T)
        g += self._offset_grad  # in place, as in core.effective_weight
        return g

    def _sides(self, factors, resid, a_s) -> Sides:
        return Sides((factors.b.mT @ resid) @ self.problem.s.T, resid @ a_s.mT)


class QuadraticObjective(Objective):
    """(mu/2) ||W - W*||_F^2 on the base weight ``w_pt``: a strongly convex test objective.

    At a factor state, stacked or not, ``sides`` and ``evaluate`` form
    ``W = W_pt + B A`` and the gradient ``mu (W - W*)`` on the whole stack
    at once, and take the sides from G unchecked: an entry of G that
    overflows forces a loss of at least 0.9e308. They call neither ``grad``
    nor ``loss``, and each slice gets the bits those give at its own W.
    """

    def __init__(self, w_star: np.ndarray, mu: float, w_pt: np.ndarray):
        if not 0 < mu < np.inf:
            raise ValueError(f"mu must be positive and finite, got {mu}")
        self.w_star = as_matrix(w_star, "W_star")
        self.w_pt = as_matrix(w_pt, "W_pt")
        self.mu = float(mu)
        self.optimum_loss = 0.0
        self.optimum_w = self.w_star

    def loss(self, w: np.ndarray) -> float:
        diff = w - self.w_star
        return 0.5 * self.mu * np.sum(diff * diff, axis=(-2, -1))

    def grad(self, w: np.ndarray) -> np.ndarray:
        return self.mu * (w - self.w_star)

    def sides(self, factors: LoRAFactors) -> Sides:
        g = self.mu * (effective_weight(self.w_pt, factors) - self.w_star)
        return Sides(factors.b.mT @ g, g @ factors.a.mT)

    def evaluate(self, factors: LoRAFactors) -> StateEval:
        diff = effective_weight(self.w_pt, factors) - self.w_star
        loss = 0.5 * self.mu * np.sum(diff * diff, axis=(-2, -1))
        g = self.mu * diff
        return StateEval(loss, g, Sides(factors.b.mT @ g, g @ factors.a.mT))


class RegressionObjective(_ResidualObjective):
    """||W s - y||^2 with rank-one gradient 2 (W s - y) s^T.

    At a factor state, with res the residual, the sides are
    ``B^T G = 2 (B^T res) s^T`` and ``G A^T = 2 res (A s)^T``, O((m + n) r)
    work. Its problem is a ``RegressionProblem``, or a ``RegressionStack``
    read only at factor states: a stacked state on a stack of k instances
    takes slice j to instance j, and C0 is the stack's offsets.
    """

    def loss(self, w: np.ndarray) -> float:
        return self._loss_of(w @ self.problem.s - self.problem.y)

    def grad(self, w: np.ndarray) -> np.ndarray:
        return self._grad_of(None, w @ self.problem.s - self.problem.y, None)

    def _residual(self, factors: LoRAFactors):
        s = self.problem.s[..., :, None]
        a_s = (factors.a @ s)[..., 0]
        resid = (factors.b @ a_s[..., :, None])[..., 0]
        resid += self._offset  # in place, as in core.effective_weight
        return resid, a_s

    @staticmethod
    def _loss_of(resid):
        """||res||^2 of each slice of the residual."""
        return slice_dots(resid[..., None, :], resid[..., None, :])

    def _grad_of(self, factors, resid, a_s) -> np.ndarray:
        g = resid[..., :, None] * self.problem.s[..., None, :]
        g *= 2.0  # in place: a logged row holds no m x n array but G
        return g

    def _sides(self, factors, resid, a_s) -> Sides:
        bt_res = (factors.b.mT @ resid[..., :, None])[..., 0]
        return Sides(2.0 * (bt_res[..., :, None] * self.problem.s[..., None, :]),
                     2.0 * (resid[..., :, None] * a_s[..., None, :]))


def sensing_objective(problem: SensingProblem) -> SensingObjective:
    return SensingObjective(problem)


def quadratic_objective(w_star, mu: float, w_pt) -> QuadraticObjective:
    return QuadraticObjective(w_star, mu, w_pt)


def regression_objective(problem: RegressionProblem | RegressionStack) -> RegressionObjective:
    return RegressionObjective(problem)


def balanced_init(w_delta, r: int) -> LoRAFactors:
    """Balanced factorization of the best rank-r approximation of w_delta.

    Splits the truncated SVD as A = S^{1/2} V^T, B = U S^{1/2}, which puts
    the pair exactly on the balanced manifold (A A^T = B^T B = S). Singular
    values below 1e-12 of the largest are clamped to that threshold so the
    factor Grams stay invertible. The SVD is ``thin_svd``'s: a block
    iteration on 2r + 4 columns whose residual and tail-energy certificate
    proves the r pairs are the leading ones (sigma_{r+1} < s_r), or, where
    it cannot (no gap, a flat spectrum, 2r + 4 >= min(m, n)), the dense SVD.
    """
    w_delta = as_matrix(w_delta, "w_delta")
    u, sigma, v = thin_svd(w_delta, r)
    sigma = np.maximum(sigma, 1e-12 * sigma[0])
    root = np.sqrt(sigma)
    return LoRAFactors(a=root[:, None] * v.T, b=u * root)


def zero_b_init(n: int, m: int, r: int, seed, align=None) -> LoRAFactors:
    """Unit-row random A with B = 0.

    Without ``align``, each row of A is an independent Gaussian direction
    normalized to unit norm: the standard LoRA start. With ``align`` (an
    n-vector), every row keeps an exact 0.5 component along it, so
    ||A align|| stays of order sqrt(r) independent of n. A generic unit
    row's overlap with a fixed direction decays like n^{-1/2}; that starves
    plain factor descent's signal at large n, while the balanced flow's
    per-step output change stays dimension-free.
    """
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((r, n))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    if align is not None:
        direction = np.asarray(align, dtype=np.float64)
        direction = direction / np.linalg.norm(direction)
        coeff = 0.5
        ortho = rows - np.outer(rows @ direction, direction)
        norms = np.linalg.norm(ortho, axis=1, keepdims=True)
        if norms.min() < 1e-12:
            raise ValueError("a sampled row is parallel to align; use another seed")
        rows = coeff * direction[None, :] + np.sqrt(1.0 - coeff**2) * (ortho / norms)
    return LoRAFactors(a=rows, b=np.zeros((m, r)))


def aligned_zero_b_init(s, m: int, r: int, seed) -> LoRAFactors:
    """``zero_b_init`` of an m x n weight, aligned with the regression
    feature ``s`` (an n-vector).

    The start draws from ``SeedSequence([seed, 1])``: an instance built
    from the same ``seed`` draws its feature from the same first normals,
    which would make the first row of A parallel to it.
    """
    return zero_b_init(len(s), m, r, np.random.SeedSequence([seed, 1]), align=s)


# Rows of W_pt drawn per block; a short tail joins the block before it.
_BLOCK_ROWS = 64


def _draw_regression(n: int, m: int, seed, rows: np.ndarray):
    """Draw one regression instance's stream and return ``(s, W_pt s, u)``.

    The stream is the unit feature s, then W_pt's rows with N(0, 1/n)
    entries, then the unit label offset u. W_pt is drawn in blocks of
    ``_BLOCK_ROWS`` rows, the last block taking the tail, and ``W_pt s`` is
    taken block by block. ``rows`` receives the blocks: the m x n W_pt
    itself, filled in place, or a buffer of at least
    ``min(m, 2 * _BLOCK_ROWS - 1)`` rows that every block reuses. At one
    OpenBLAS thread the blocked ``W_pt s`` has matched the full product bit
    for bit on every shape tried, and unlike the full product its bits do
    not depend on the thread count. Blocks that leave a short tail alone
    (one row of 1025, say) do not match it.
    """
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(n)
    s /= np.linalg.norm(s)
    scale = np.sqrt(n)
    starts = range(0, max(m // _BLOCK_ROWS, 1) * _BLOCK_ROWS, _BLOCK_ROWS)
    w_s = np.empty(m)
    for start, stop in zip(starts, [*starts[1:], m]):
        block = rows[start:stop] if len(rows) == m else rows[:stop - start]
        rng.standard_normal(out=block)
        block /= scale
        w_s[start:stop] = block @ s
    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    return s, w_s, u


def make_regression_instance(n: int, m: int, seed) -> RegressionProblem:
    """Unit feature s, Gaussian base weight with N(0, 1/n) entries, and a
    label placed so the initial residual ||W_pt s - y|| is exactly 1.

    W_pt is filled in row blocks (``_draw_regression``), and ``y`` is
    ``W_pt s + u`` with the blocked product, so ``make_regression_stack``
    gives the same features and offsets without forming W_pt.
    """
    w_pt = np.empty((m, n))
    s, w_s, u = _draw_regression(n, m, seed, w_pt)
    return RegressionProblem(s=s, y=w_s + u, w_pt=w_pt)


def make_regression_stack(n: int, m: int, seeds) -> RegressionStack:
    """The instances ``make_regression_instance(n, m, seed)`` of ``seeds``,
    in order, as a ``RegressionStack`` with the same bits: each feature s
    and offset ``W_pt s - y``.

    No W_pt is formed: each is drawn in row blocks through one buffer of
    at most ``2 * _BLOCK_ROWS - 1`` rows, so the build holds
    O(k (m + n) + _BLOCK_ROWS n) floats for k seeds.
    """
    rows = np.empty((min(m, 2 * _BLOCK_ROWS - 1), n))
    features, offsets = [], []
    for seed in seeds:
        s, w_s, u = _draw_regression(n, m, seed, rows)
        features.append(s)
        offsets.append(w_s - (w_s + u))
    return RegressionStack(np.array(features), np.array(offsets))


def perturbed_balanced_init(
    problem: SensingProblem, scale: float, perturbation: float, seed
) -> LoRAFactors:
    """Start factors for sensing runs: ``perturbed_target_init`` of the
    ground truth B* A*. Small scales and perturbations keep the
    initialization certificate below 1."""
    return perturbed_target_init(
        problem.b_star @ problem.a_star, problem.rank, scale, perturbation, seed
    )


def perturbed_target_init(target, r: int, scale: float, perturbation: float,
                          seed) -> LoRAFactors:
    """Balanced rank-r start for ``scale * target`` plus a Gaussian
    perturbation whose Frobenius norm is ``perturbation`` times the
    target's, drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(target.shape)
    noise *= np.linalg.norm(target) / np.linalg.norm(noise)
    return balanced_init(scale * target + perturbation * noise, r)

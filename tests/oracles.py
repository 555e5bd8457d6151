"""Independent oracles the tests check the library against.

Everything here is deliberately written along a different computational
route than the library: plain Gaussian elimination instead of Cholesky,
Kronecker vectorization instead of eigendecomposition, trace-power Newton
identities instead of an eigensolver, stacked least squares instead of the
closed-form constrained minimizer, and finite differences instead of exact
gradients. The null-space projectors are formed as explicit n x n and
m x m matrices, where the library only applies them through Gram solves;
``flow_rhs_full``, the full-weight velocity ``-G + P_B^null G P_A^null``
the flow must induce, is built from them. ``dense_field`` is the library's
field at a dense G, which the tests check against these routes; it reaches
the field as a caller with a dense G does. ``dense_sides`` and
``dense_evaluate`` read an objective at a factor state by forming W and
calling its ``grad`` and ``loss`` one slice at a time, where each library
objective reads a whole stack in one call; ``DenseObjective`` is a base
for test objectives that define only ``grad`` and ``loss``. The sensing
ground truth is balanced from its dense m x n product's full SVD, where
the library works from its factors, and ``dense_thin_svd`` truncates the
full SVD, where the library's ``thin_svd`` iterates on a block.
``longdouble_distance`` takes ``||B A - B* A*||_F`` from the dense m x n
difference in extended precision, where sensing's ``dist_to_opt`` works
in factor form. ``weight_flow`` integrates the flow's dense weight ODE,
the gradient projected onto the tangent space of the rank-r matrices,
where the library steps the factors.
"""

from __future__ import annotations

import numpy as np

from odelora.core import (FactorGrams, LoRAFactors, Objective, StateEval, effective_weight,
                          field_eval, gradient_sides, gram_a, gram_b)
from odelora.linalg import NotPositiveDefinite


def gauss_solve(g, rhs):
    """Dense Gaussian elimination with partial pivoting."""
    a = np.array(g, dtype=np.float64)
    b = np.array(rhs, dtype=np.float64)
    n = a.shape[0]
    for col in range(n):
        pivot = col + np.argmax(np.abs(a[col:, col]))
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def _gram_solve(gram, rhs):
    """``gauss_solve`` on a Gram; one that elimination finds singular raises
    NotPositiveDefinite, as the library's kernel does."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = gauss_solve(gram, rhs)
    if not np.all(np.isfinite(z)):
        raise NotPositiveDefinite("Gaussian elimination met a zero pivot")
    return z


def null_projector_a(factors, eps=0.0):
    """I - A^T (A A^T + eps I)^{-1} A, the row-space annihilator (n x n)."""
    a = factors.a
    return np.eye(a.shape[1]) - a.T @ _gram_solve(gram_a(factors, eps), a)


def null_projector_b(factors, eps=0.0):
    """I - B (B^T B + eps I)^{-1} B^T, the column-space annihilator (m x m)."""
    b = factors.b
    return np.eye(b.shape[0]) - b @ _gram_solve(gram_b(factors, eps), b.T)


def flow_rhs_full(factors, g, eps=0.0):
    """-G + P_B^null G P_A^null, the full-weight velocity B F_A + F_B A that
    the balanced field induces (for any eps), from the explicit projectors."""
    return -g + null_projector_b(factors, eps) @ g @ null_projector_a(factors, eps)


def dense_field(factors, g, eps=0.0):
    """The library's field at a dense gradient G: G's sides, whose shape and
    finiteness ``gradient_sides`` checks, and the state's ``FactorGrams``,
    which refuse a degenerate or overflowing Gram."""
    return field_eval(factors, gradient_sides(factors, g), FactorGrams(factors, eps))


def _per_slice(factors, fn, w):
    """``fn(w)`` at an unstacked state; at a stacked one, the array of ``fn``
    over the slices of w."""
    return np.array([fn(x) for x in w]) if factors.stacked else fn(w)


def dense_sides(objective, factors):
    """``(B^T G, G A^T)`` at ``W_pt + B A``, with G from ``objective.grad``
    one slice at a time."""
    w = effective_weight(objective.w_pt, factors)
    return gradient_sides(factors, _per_slice(factors, objective.grad, w))


def dense_evaluate(objective, factors):
    """Loss, gradient and sides at ``W_pt + B A``, each slice's from
    ``objective.loss`` and ``objective.grad`` at its own W."""
    w = effective_weight(objective.w_pt, factors)
    g = _per_slice(factors, objective.grad, w)
    loss = _per_slice(factors, lambda x: float(objective.loss(x)), w)
    return StateEval(loss, g, gradient_sides(factors, g))


class DenseObjective(Objective):
    """An objective that defines ``loss`` and ``grad`` of a 2-D W and reads
    factor states through ``dense_sides`` and ``dense_evaluate``."""

    def sides(self, factors):
        return dense_sides(self, factors)

    def evaluate(self, factors):
        return dense_evaluate(self, factors)


def longdouble_distance(factors, b_star, a_star):
    """``||B A - B* A*||_F`` of a state, or a (k,) array of them at a stack,
    from the dense difference in ``np.longdouble``."""
    ld = np.longdouble
    diff = factors.b.astype(ld) @ factors.a.astype(ld) - b_star.astype(ld) @ a_star.astype(ld)
    return np.sqrt(np.sum(diff * diff, axis=(-2, -1))).astype(np.float64)


def weight_flow(objective, delta, r, horizon, h):
    """The dense weight flow ``Delta' = -P_T(Delta)(grad L(W_pt + Delta))``
    from ``delta`` to ``horizon``, by classical RK4 at step ``h`` on the
    m x n matrix: the terminal ``W_pt + Delta``. ``P_T(Z) = U U^T Z +
    Z V V^T - U U^T Z V V^T`` projects onto the tangent space of the
    rank-r matrices at Delta, with U and V from Delta's rank-r SVD. It
    reads only the objective's base weight and ``grad``: no factor, Gram,
    gauge, Sylvester solve or tableau of the library."""

    def velocity(delta):
        u, _, vt = np.linalg.svd(delta, full_matrices=False)
        u, v = u[:, :r], vt[:r].T
        g = objective.grad(objective.w_pt + delta)
        u_g = u @ (u.T @ g)
        return -(u_g + (g - u_g) @ v @ v.T)

    delta = np.array(delta, dtype=np.float64)
    for _ in range(round(horizon / h)):
        k1 = velocity(delta)
        k2 = velocity(delta + 0.5 * h * k1)
        k3 = velocity(delta + 0.5 * h * k2)
        k4 = velocity(delta + h * k3)
        delta = delta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return objective.w_pt + delta


def dense_thin_svd(m, k):
    """(U, sigma, V) of the rank-k truncation of M's full dense SVD."""
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=np.float64), full_matrices=False)
    return u[:, :k], s[:k], vt[:k].T


def dense_unit_balanced_truth(rng, m, n, r):
    """Balanced factors of ``L R / sigma_r(L R)`` from the dense product:
    sigma_r from its full SVD, then the split ``A = S^{1/2} V^T``,
    ``B = U S^{1/2}`` of the rescaled product's full SVD. Draws L (m x r),
    then R (r x n)."""
    target = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    sigma_r = np.linalg.svd(target, compute_uv=False)[r - 1]
    u, sigma, v = dense_thin_svd(target / sigma_r, r)
    root = np.sqrt(sigma)
    return LoRAFactors(a=root[:, None] * v.T, b=u * root)


def charpoly_from_traces(h):
    """Characteristic polynomial coefficients via Newton's identities.

    Returns (c_0, ..., c_n) with det(xI - H) = sum_k c_k x^k, computed from
    the power sums p_k = tr(H^k) alone (no eigensolver involved).
    """
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[0]
    powers = [np.trace(np.linalg.matrix_power(h, k)) for k in range(1, n + 1)]
    # e_k from Newton's identities: k e_k = sum_{i=1..k} (-1)^{i-1} e_{k-i} p_i
    e = [1.0]
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * powers[i - 1]
        e.append(acc / k)
    # det(xI - H) = sum_k (-1)^k e_k x^{n-k}
    coeffs = [(-1) ** k * e[k] for k in range(n + 1)]
    return np.array(coeffs[::-1])


def kron_sylvester(h, c):
    """Solve H X + X H = C by vectorizing: (I (x) H + H^T (x) I) vec(X) = vec(C)."""
    h = np.asarray(h, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    r = h.shape[0]
    lhs = np.kron(np.eye(r), h) + np.kron(h.T, np.eye(r))
    return np.linalg.solve(lhs, c.flatten(order="F")).reshape((r, r), order="F")


def _vec(m):
    return m.flatten(order="F")


def _unvec(v, shape):
    return v.reshape(shape, order="F")


class KKTOracle:
    """Stacked-system oracle for the constrained direction-matching problem.

    Variables z = [vec(J); vec(K)]. The objective is ||B J + K A + G||_F^2
    and the constraint is J A^T + A J^T - K^T B - B^T K = 0 (upper triangle
    rows). The minimizer set is characterized without normal equations
    (which would square the conditioning): a feasible z is optimal iff its
    image B J + K A equals the unconstrained least-squares image, because
    the constrained minimum cannot beat the unconstrained one. ``solve``
    returns the minimum-norm member; the set is ``z + null(stack)`` and
    has antisymmetric gauge freedom of dimension r (r - 1) / 2.
    """

    def __init__(self, a, b, g):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.g = np.asarray(g, dtype=np.float64)
        r, n = self.a.shape
        m = self.b.shape[0]
        self.r, self.m, self.n = r, m, n
        self.n_j = r * n
        # vec(B J) = (I_n (x) B) vec(J);  vec(K A) = (A^T (x) I_m) vec(K)
        self.mat = np.hstack([np.kron(np.eye(n), self.b), np.kron(self.a.T, np.eye(m))])
        rows = []
        iu = np.triu_indices(r)
        for col in range(self.n_j + r * m):
            z = np.zeros(self.n_j + r * m)
            z[col] = 1.0
            j, k = self.split(z)
            cons = j @ self.a.T + self.a @ j.T - k.T @ self.b - self.b.T @ k
            rows.append(cons[iu])
        self.cons = np.array(rows).T
        z_ls, *_ = np.linalg.lstsq(self.mat, -_vec(self.g), rcond=None)
        self.optimal_image = self.mat @ z_ls
        self.stack = np.vstack([self.mat, self.cons])
        self.rhs = np.concatenate([self.optimal_image, np.zeros(self.cons.shape[0])])

    def split(self, z):
        j = _unvec(z[: self.n_j], (self.r, self.n))
        k = _unvec(z[self.n_j :], (self.m, self.r))
        return j, k

    def join(self, j, k):
        return np.concatenate([_vec(j), _vec(k)])

    def objective(self, z):
        return float(np.linalg.norm(self.mat @ z + _vec(self.g)) ** 2)

    def constraint_residual(self, z):
        return float(np.linalg.norm(self.cons @ z))

    def solve(self):
        """Minimum-norm member of the constrained minimizer set."""
        z, *_ = np.linalg.lstsq(self.stack, self.rhs, rcond=None)
        return z

    def distance_to_solution_set(self, z):
        """Distance from z to the affine set {stack @ z == rhs}."""
        residual = self.stack @ z - self.rhs
        correction, *_ = np.linalg.lstsq(self.stack, residual, rcond=None)
        return float(np.linalg.norm(correction))


def central_diff_directional(loss, w, direction, step):
    """Central finite difference of ``loss`` at ``w`` along ``direction``."""
    return (loss(w + step * direction) - loss(w - step * direction)) / (2.0 * step)


def gradient_probe_error(objective, w, rng, probes=20):
    """Max relative error of <grad, D> vs central differences over random D."""
    g = objective.grad(w)
    step = 1e-5 * (1.0 + np.linalg.norm(w))
    worst = 0.0
    for _ in range(probes):
        d = rng.standard_normal(w.shape)
        d /= np.linalg.norm(d)
        exact = float(np.sum(g * d))
        approx = central_diff_directional(objective.loss, w, d, step)
        denom = max(1.0, abs(exact))
        worst = max(worst, abs(exact - approx) / denom)
    return worst

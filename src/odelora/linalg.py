"""Small dense linear-algebra kernel used by the adapter flow.

Everything here operates on plain float64 ``numpy`` arrays. The matrices that
show up in practice are the r x r Gram matrices of the adapter factors
(r <= 64), so the routines favour clarity and strict error reporting over
blocked performance. Factorizations are delegated to LAPACK through numpy;
the symmetric Sylvester solve is built on top of the eigendecomposition,
which is valid because its coefficient matrix is symmetric positive definite
on the feasible set.

``cho_factor``, ``cho_solve`` and ``sylvester_eig`` trust their operands:
inputs are validated where they enter the library (``as_matrix``,
``LoRAFactors`` and the dense-gradient check in ``core.gradient_sides``).
The gradient sides that an objective supplies for a Runge–Kutta stage are
not checked; a non-finite side gives a non-finite direction, which raises
``NonFiniteState`` when the next state's ``LoRAFactors`` is built.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NonFiniteState",
    "NotPositiveDefinite",
    "NoConvergence",
    "DegenerateSpectrum",
    "as_matrix",
    "cho_factor",
    "cho_solve",
    "sylvester_eig",
    "thin_svd",
]

# Relative pivot / spectrum-gap threshold below which a solve is refused.
PIVOT_RTOL = 1e-14


class NonFiniteState(ValueError):
    """A matrix, or the Frobenius norm of a Gram, is infinite or NaN: the
    state has blown up, as opposed to a programming error."""


class NotPositiveDefinite(Exception):
    """A Cholesky pivot fell below the relative threshold.

    Signals a (numerically) degenerate Gram matrix; the caller is expected
    to regularize and retry.
    """


class NoConvergence(Exception):
    """The symmetric eigensolver failed to converge."""


class DegenerateSpectrum(Exception):
    """An eigenvalue-pair sum in the Sylvester solve is numerically zero,
    so the solution is no longer unique."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteState(f"{name} contains non-finite entries")
    return m


def cho_factor(g: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    G is trusted to be 2-D and symmetric; only its lower triangle is read.
    Raises NonFiniteState if ``||G||_F`` is not finite, and
    NotPositiveDefinite if the factorization fails or any pivot is at or
    below ``PIVOT_RTOL * ||G||_F``.
    """
    norm = np.linalg.norm(g)
    if not np.isfinite(norm):
        raise NonFiniteState(f"||G||_F = {norm} is not finite")
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err
    pivots = np.diag(chol) ** 2
    if pivots.min() <= PIVOT_RTOL * norm:
        raise NotPositiveDefinite(
            f"pivot {pivots.min():.3e} below threshold for ||G|| = {norm:.3e}"
        )
    return chol


def cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve G Z = RHS given the lower Cholesky factor of G."""
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def sylvester_eig(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve H X + X H = C for symmetric positive-definite H and symmetric C.

    H and C are trusted to be symmetric. Eigendecompose H = Q diag(lam) Q^T;
    in the eigenbasis the equation decouples entrywise into
    (lam_i + lam_j) Xt_ij = Ct_ij. The result is symmetrized, as C is
    symmetric. Raises NoConvergence if the eigensolver fails and
    DegenerateSpectrum if an eigenvalue-pair sum is not safely positive.
    """
    try:
        w, q = np.linalg.eigh(h)
    except np.linalg.LinAlgError as err:
        raise NoConvergence(str(err)) from err
    pair_sums = w[:, None] + w[None, :]
    scale = max(abs(float(w[0])), abs(float(w[-1])))
    if pair_sums.min() <= PIVOT_RTOL * scale or pair_sums.min() <= 0.0:
        raise DegenerateSpectrum(
            f"eigenvalue pair sum {pair_sums.min():.3e} too small; H must be positive definite"
        )
    ct = q.T @ c @ q
    x = q @ (ct / pair_sums) @ q.T
    return 0.5 * (x + x.T)


def thin_svd(m, k: int):
    """Rank-k truncated SVD: returns (U, sigma, V) with M ~ U diag(sigma) V^T.

    sigma is descending; U is m x k and V is n x k with orthonormal columns.
    """
    m = as_matrix(m, "M")
    if not 0 < k <= min(m.shape):
        raise ValueError(f"target rank {k} out of range for shape {m.shape}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return u[:, :k], s[:k], vt[:k].T

"""Small dense linear-algebra kernel used by the adapter flow.

Everything here operates on plain float64 ``numpy`` arrays. The matrices that
show up in practice are the r x r Gram matrices of the adapter factors
(r <= 64), so the routines favour clarity and strict error reporting over
blocked performance. Factorizations are delegated to LAPACK through numpy,
and a Gram's inverse is applied as two products with its inverse Cholesky
factor. The symmetric Sylvester solve is built on the eigendecomposition,
valid because its coefficient matrix is symmetric positive definite on the
feasible set. ``inverse_cholesky`` and ``sylvester_eig`` take a stack of
matrices along leading axes as well as a single one; each slice gets
bit-for-bit what it gets alone, and a slice that is refused refuses the
whole call, since numpy's stacked factorizations raise for the whole stack.

``inverse_cholesky`` and ``sylvester_eig`` trust their operands:
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
    "inverse_cholesky",
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


def as_matrix(a, name: str = "matrix", *, stack: bool = False) -> np.ndarray:
    """Coerce to a 2-D float64 array, or with ``stack`` also a 3-D stack of
    matrices, and reject non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        raise ValueError(f"{name} must be {'2-D or 3-D' if stack else '2-D'}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteState(f"{name} contains non-finite entries")
    return m


def inverse_cholesky(grams: np.ndarray) -> np.ndarray:
    """Inverses ``L^{-1}`` of the lower Cholesky factors of a (..., r, r) stack.

    Each G is trusted to be symmetric; only its lower triangle is read, and
    each gets bit-for-bit what a stack holding it alone gets. An explicit
    inverse is not backward stable in general (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 14); the condition-scaled field
    identities in ``tests/test_kernel.py`` gate its use. Raises NonFiniteState
    if some ``||G||_F`` is not finite, and NotPositiveDefinite if the
    factorization fails or some pivot is at or below ``PIVOT_RTOL * ||G||_F``.
    Norms are checked before factoring: a non-finite one wins over a refusal.
    """
    norms = np.sqrt(np.einsum("...ij,...ij->...", grams, grams))
    if not np.isfinite(norms).all():
        raise NonFiniteState(f"||G||_F = {norms} is not finite")
    try:
        chol = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err
    pivots = (chol.diagonal(0, -2, -1) ** 2).min(axis=-1)
    if (pivots <= PIVOT_RTOL * norms).any():
        raise NotPositiveDefinite(
            f"pivots {pivots} below threshold for ||G|| = {norms}"
        )
    return np.linalg.inv(chol)


def sylvester_eig(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve H X + X H = C for symmetric positive-definite H and symmetric C.

    H and C are trusted to be symmetric, and may be (..., r, r) stacks.
    Eigendecompose H = Q diag(lam) Q^T; in the eigenbasis the equation
    decouples entrywise into (lam_i + lam_j) Xt_ij = Ct_ij. The result is
    symmetrized, as C is symmetric. Raises NoConvergence if the eigensolver
    fails and DegenerateSpectrum if some slice's eigenvalue-pair sum is not
    safely positive.
    """
    try:
        w, q = np.linalg.eigh(h)
    except np.linalg.LinAlgError as err:
        raise NoConvergence(str(err)) from err
    pair_sums = w[..., :, None] + w[..., None, :]
    smallest = pair_sums.min(axis=(-2, -1))
    scale = np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))
    if ((smallest <= PIVOT_RTOL * scale) | (smallest <= 0.0)).any():
        raise DegenerateSpectrum(
            f"eigenvalue pair sum {smallest.min():.3e} too small; H must be positive definite"
        )
    ct = q.mT @ c @ q
    x = q @ (ct / pair_sums) @ q.mT
    return 0.5 * (x + x.mT)


def thin_svd(m, k: int):
    """Rank-k truncated SVD: returns (U, sigma, V) with M ~ U diag(sigma) V^T.

    sigma is descending; U is m x k and V is n x k with orthonormal columns.
    """
    m = as_matrix(m, "M")
    if not 0 < k <= min(m.shape):
        raise ValueError(f"target rank {k} out of range for shape {m.shape}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return u[:, :k], s[:k], vt[:k].T

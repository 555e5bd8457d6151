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

``thin_svd`` keeps the leading k singular triplets of an m x n matrix
without its dense SVD when it can certify them: orthogonal iteration on a
fixed-seed block of 2k + 4 columns with a Rayleigh–Ritz finish each sweep
(Halko, Martinsson & Tropp, *SIAM Review* 53(2), 2011, Alg. 4.4; Golub &
Van Loan, *Matrix Computations*, §8.2.4). A sweep is accepted when its
residual is at round-off and its tail energy ``||M||_F^2 - sum s_i^2`` is
below s_k^2, which proves sigma_{k+1} < s_k since Ritz values interlace
(s_i <= sigma_i). Where no sweep can be accepted (no gap at k, a flat
spectrum, a block as wide as M) it returns what the dense SVD gives.

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
# thin_svd's certificate tolerance, in units of eps ||M||_F, and sweep cap.
CERT_EPS = 64.0
SWEEPS = 8


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
    With p = 2k + 4 < min(m, n), orthogonal iteration runs from a fixed-seed
    Gaussian block Z (n x p, orthonormal), so the result is a deterministic
    function of M. A sweep takes the thin SVD ``M Z = U Sigma W^T`` and sets
    ``V = Z W``, so ``M V = U Sigma``; ``M^T U`` is both the residual check
    and, orthonormalized, the next Z. A sweep is accepted when its leading k
    pairs have (i) ``||M^T U_k - V_k Sigma_k||_F <= c eps ||M||_F`` and
    (ii) ``||M||_F^2 - sum_{i<=k} s_i^2 + c eps ||M||_F^2 < s_k^2``, with
    c = ``CERT_EPS``. Proof that (ii) makes them the leading k: Ritz values
    interlace, s_i <= sigma_i(M), so sigma_{k+1}(M)^2 <= sum_{i>k}
    sigma_i(M)^2 <= ||M||_F^2 - sum_{i<=k} s_i^2 < s_k^2. A tie
    sigma_k = sigma_{k+1} or a flat spectrum never meets (ii). The dense SVD
    runs instead when p >= min(m, n), when a sweep misses (ii) and shrank
    the tail bound ``||M||_F^2 - sum s_i^2`` by no more than (ii) still
    lacks, and when ``SWEEPS`` sweeps do not certify.
    """
    m = as_matrix(m, "M")
    if not 0 < k <= min(m.shape):
        raise ValueError(f"target rank {k} out of range for shape {m.shape}")
    p = 2 * k + 4
    if p < min(m.shape):
        fro = np.linalg.norm(m)
        tol = CERT_EPS * np.finfo(np.float64).eps * fro
        z = np.linalg.qr(np.random.default_rng(0).standard_normal((m.shape[1], p)))[0]
        prev = np.inf
        for _ in range(SWEEPS):
            u, s, wt = np.linalg.svd(m @ z, full_matrices=False)
            mtu = m.T @ u
            u, s, v = u[:, :k], s[:k], z @ wt[:k].T
            tail = fro**2 - s @ s
            lack = tail + tol * fro - s[-1] ** 2
            if lack < 0 and np.linalg.norm(mtu[:, :k] - v * s) <= tol:
                return u, s, v
            if lack >= 0 and prev - tail <= lack:
                break
            prev = tail
            z = np.linalg.qr(mtu)[0]
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return u[:, :k], s[:k], vt[:k].T

"""Pointwise measurements on adapter states and loss trajectories.

These are the quantities the convergence theory is stated in terms of:
the fraction of gradient energy lost to the factor null spaces, the
distance from the balanced manifold, fitted linear-convergence rates, and
the initialization certificate for the sensing problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FactorGrams, LoRAFactors, gram_a, gram_b, slice_dots, slice_norms
from .linalg import NonFiniteState, as_matrix

__all__ = [
    "ZeroGradient",
    "WindowTooShort",
    "RateFit",
    "eps_ratio",
    "balance_defect",
    "rate_fit",
    "sensing_eps_certificate",
]

# Loss gaps below this are treated as numerical noise in rate fits.
NOISE_FLOOR = 1e-12
# Gradient norms at or below this vanish: the null-space ratio is undefined.
ZERO_NORM = 1e-14


class ZeroGradient(Exception):
    """The gradient is numerically zero, so the null-space ratio is undefined."""


class WindowTooShort(Exception):
    """Fewer than 5 usable points in the rate-fit window."""


def eps_ratio(factors: LoRAFactors, g: np.ndarray, eps: float = 0.0) -> float:
    """Fraction of squared gradient norm lying in both factor null spaces.

    Returns <P_B^null G P_A^null, G> / ||G||_F^2, which equals
    ||P_B^null G P_A^null||_F^2 / ||G||_F^2 and hence lies in [0, 1].
    Linear convergence requires this ratio bounded away from 1.

    G is not projected. With ``FactorGrams``' regularized Grams G_A, G_B
    and ``T = B^T G A^T``, the numerator is read from G's own sides:

        <P_B^null G P_A^null, G> = ||G||^2 - tr(G_B^{-1} (B^T G)(B^T G)^T)
            - tr(G_A^{-1} (G A^T)^T (G A^T)) + tr(G_B^{-1} T G_A^{-1} T^T)

    Each Gram's two right-hand sides share one solve. The sides cost
    O(r m n); everything else is O((m + n) r^2) but the norm's pass over G.
    Both this and the dense projection carry round-off of order machine
    epsilon times the Grams' conditioning, so a ratio at that floor can
    come out slightly below 0.

    The sides must be those of this very G, so they are formed here and
    never taken from the objective. The identity subtracts terms of the
    size of ``||G||^2``; sides computed another way, such as the Gram form
    of ``SensingObjective``, differ from G's own by round-off relative to
    the gradient's parts (``K`` and ``B (A Q)``), not to G. Near the floor
    that is far larger than G: handed those sides, the default sensing run
    logged 36 of its 501 ratios outside [-1e-12, 1 + 1e-12], down to -0.018.

    G is checked here (``as_matrix``), and ``||G||^2`` is
    ``core.slice_dots(G, G)``, whose square root is a logged row's
    ``grad_norm``: NonFiniteState is raised if that is not finite, and then
    ZeroGradient if its root is at most 1e-14, so ZeroGradient falls on
    exactly the rows whose ``grad_norm`` is. A logged row hands its own
    ``||G||^2`` to ``_ratio`` and gets the bits of this call. At a stacked
    state, with G a (k, m, n) stack, the ratios come as a (k,) array, and
    either error is raised if any slice has it. Each trace is one stacked
    dot product, each slice's the bits of the same call on that slice alone.
    """
    g = as_matrix(g, "G", stack=True)
    gnorm2 = slice_dots(g, g)
    if not np.isfinite(gnorm2).all():
        raise NonFiniteState("G has a non-finite Frobenius norm")
    if (np.sqrt(gnorm2) <= ZERO_NORM).any():
        raise ZeroGradient("gradient norm at or below 1e-14")
    return _ratio(factors, g, gnorm2, eps)


def _ratio(factors: LoRAFactors, g: np.ndarray, gnorm2, eps: float):
    """``eps_ratio`` of a G already known to be a matrix or stack of ``factors``'
    shape, given ``gnorm2 = slice_dots(G, G)``, per slice: 0.0 where the gradient
    vanishes, non-finite where ``gnorm2`` is. Only the kernel raises. A float
    at an unstacked state, else a (k,) array."""
    a, b = factors.a, factors.b
    bt_g, g_at = b.mT @ g, g @ a.mT
    t = bt_g @ a.mT
    grams = FactorGrams(factors, eps)
    m, n = factors.shape
    left = grams.solve_b(np.concatenate((bt_g, t), axis=-1))
    right = grams.solve_a(np.concatenate((g_at.mT, t.mT), axis=-1))
    trapped = (gnorm2 - slice_dots(left[..., :n], bt_g) - slice_dots(right[..., :m], g_at.mT)
               + slice_dots(left[..., n:], right[..., m:].mT))
    zero = np.sqrt(gnorm2) <= ZERO_NORM
    ratio = np.where(zero, 0.0, trapped / np.where(zero, 1.0, gnorm2))
    return ratio if ratio.ndim else float(ratio)


def balance_defect(factors: LoRAFactors) -> float:
    """Frobenius distance ||A A^T - B^T B||_F from the balanced manifold;
    a (k,) array of them at a stacked state."""
    return slice_norms(gram_a(factors) - gram_b(factors))


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(loss - loss_star) against iteration."""

    slope: float
    contraction: float
    window: tuple[int, int]


def rate_fit(losses, loss_star: float) -> RateFit:
    """Fit the per-iteration contraction factor of the loss gap.

    The fit uses the last half of the iterations whose gap is still above
    the noise floor (the early half is transient, and gaps below round-off
    carry no rate information); ``window`` reports that half-open index
    range (start, stop).
    """
    losses = np.asarray(losses, dtype=np.float64)
    usable = np.flatnonzero(losses - loss_star >= NOISE_FLOOR)
    idx = usable[len(usable) // 2 :]
    if len(idx) < 5:
        raise WindowTooShort(f"only {len(idx)} usable points in the fit window")
    gaps = losses[idx] - loss_star
    slope = float(np.polyfit(idx.astype(np.float64), np.log(gaps), 1)[0])
    return RateFit(slope=slope, contraction=float(np.exp(slope)),
                   window=(int(idx[0]), int(idx[-1]) + 1))


def sensing_eps_certificate(problem, f0: LoRAFactors) -> float:
    """Initialization certificate for linear convergence on sensing problems.

    Evaluates

        [ delta * smax(A*)/smin(A*)
          + ||(B0 A0 - B* A*) S||_F / (sqrt(1-delta) smin(A*) smin(B*)) ]
        / (1 - delta)

    A value below 1 certifies the null-space-leakage bound that yields the
    linear rate; >= 1 is a valid report meaning the hypothesis fails. The
    mismatch is taken as ``||B0 (A0 S) - B* (A* S)||_F``, in factor form.
    """
    sa = np.linalg.svd(problem.a_star, compute_uv=False)
    sb = np.linalg.svd(problem.b_star, compute_uv=False)
    delta = problem.delta
    s = problem.s
    mismatch = np.linalg.norm(f0.b @ (f0.a @ s) - problem.b_star @ (problem.a_star @ s))
    term1 = delta * sa[0] / sa[-1]
    term2 = mismatch / (np.sqrt(1.0 - delta) * sa[-1] * sb[-1])
    return float((term1 + term2) / (1.0 - delta))

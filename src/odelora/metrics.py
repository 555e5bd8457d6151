"""Pointwise measurements on adapter states and loss trajectories.

These are the quantities the convergence theory is stated in terms of:
the fraction of gradient energy lost to the factor null spaces, the
distance from the balanced manifold, fitted linear-convergence rates, and
the initialization certificate for the sensing problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FactorGrams, LoRAFactors, gram_a, gram_b
from .linalg import as_matrix

__all__ = [
    "ZeroGradient",
    "WindowTooShort",
    "NonPositiveGap",
    "RateFit",
    "eps_ratio",
    "balance_defect",
    "rate_fit",
    "sensing_eps_certificate",
]

# Loss gaps below this are treated as numerical noise in rate fits.
NOISE_FLOOR = 1e-12


class ZeroGradient(Exception):
    """The gradient is numerically zero, so the null-space ratio is undefined."""


class WindowTooShort(Exception):
    """Fewer than 5 usable points in the rate-fit window."""


class NonPositiveGap(Exception):
    """A loss in the fit window does not exceed the optimal value."""


def eps_ratio(factors: LoRAFactors, g: np.ndarray, eps: float = 0.0) -> float:
    """Fraction of squared gradient norm lying in both factor null spaces.

    Returns <P_B^null G P_A^null, G> / ||G||_F^2, which equals
    ||P_B^null G P_A^null||_F^2 / ||G||_F^2 and hence lies in [0, 1].
    Linear convergence requires this ratio bounded away from 1.
    """
    g = as_matrix(g, "G")
    gnorm2 = float(np.sum(g * g))
    if np.sqrt(gnorm2) <= 1e-14:
        raise ZeroGradient("gradient norm at or below 1e-14")
    both = FactorGrams(factors, eps).project_out_both(g)
    return float(np.sum(both * g)) / gnorm2


def balance_defect(factors: LoRAFactors) -> float:
    """Frobenius distance ||A A^T - B^T B||_F from the balanced manifold."""
    return float(np.linalg.norm(gram_a(factors) - gram_b(factors)))


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(loss - loss_star) against iteration."""

    slope: float
    contraction: float
    window: tuple[int, int]


def rate_fit(losses, loss_star: float, window: tuple[int, int] | None = None) -> RateFit:
    """Fit the per-iteration contraction factor of the loss gap.

    ``window`` is a half-open index range (start, stop); when omitted, the
    fit uses the last half of the iterations whose gap is still above the
    noise floor (the early half is transient, and gaps below round-off
    carry no rate information).
    """
    losses = np.asarray(losses, dtype=np.float64)
    if window is None:
        usable = np.flatnonzero(losses - loss_star >= NOISE_FLOOR)
        idx = usable[len(usable) // 2 :]
        win = (int(idx[0]) if len(idx) else len(losses), int(idx[-1]) + 1 if len(idx) else len(losses))
    else:
        start, stop = window
        idx = np.arange(start, stop)
        win = (int(start), int(stop))
    if len(idx) < 5:
        raise WindowTooShort(f"only {len(idx)} usable points in window {win}")
    gaps = losses[idx] - loss_star
    if np.any(gaps <= 0):
        raise NonPositiveGap("loss does not exceed loss_star on the fit window")
    slope = float(np.polyfit(idx.astype(np.float64), np.log(gaps), 1)[0])
    return RateFit(slope=slope, contraction=float(np.exp(slope)), window=win)


def sensing_eps_certificate(problem, f0: LoRAFactors) -> float:
    """Initialization certificate for linear convergence on sensing problems.

    Evaluates

        [ delta * smax(A*)/smin(A*)
          + ||(B0 A0 - B* A*) S||_F / (sqrt(1-delta) smin(A*) smin(B*)) ]
        / (1 - delta)

    A value below 1 certifies the null-space-leakage bound that yields the
    linear rate; >= 1 is a valid report meaning the hypothesis fails.
    """
    sa = np.linalg.svd(problem.a_star, compute_uv=False)
    sb = np.linalg.svd(problem.b_star, compute_uv=False)
    delta = problem.delta
    mismatch = np.linalg.norm((f0.delta() - problem.b_star @ problem.a_star) @ problem.s)
    term1 = delta * sa[0] / sa[-1]
    term2 = mismatch / (np.sqrt(1.0 - delta) * sa[-1] * sb[-1])
    return float((term1 + term2) / (1.0 - delta))

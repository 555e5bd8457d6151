"""The per-state field kernel: factorization counts, the non-finite-state
signal, and randomized properties of the field it computes.

The property tests draw shapes, factor and gradient scales from 1e-6 to 1e3
and eps in {0, 1e-8}, and check the paper's identities against routes that
do not go through ``FactorGrams``: plain ``np.linalg.solve`` on the Grams
and the Kronecker-vectorized Sylvester oracle.
"""

import numpy as np
import pytest

from odelora.core import FactorGrams, LoRAFactors, field_eval, flow_rhs_full, gram_a, gram_b
from odelora.linalg import NonFiniteState, NotPositiveDefinite, as_matrix
from odelora.metrics import eps_ratio
from odelora.problems import quadratic_objective
from odelora.solvers import lorapro_direction, riemannian_step
from oracles import kron_sylvester

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture
def counted(monkeypatch):
    """Count numpy's Cholesky factorizations and symmetric eigensolves."""
    counts = {"cholesky": 0, "eigh": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


def random_state(rng, r=4, m=9, n=11):
    f = LoRAFactors(a=rng.standard_normal((r, n)), b=rng.standard_normal((m, r)))
    return f, rng.standard_normal((m, n))


class TestFactorizationCounts:
    def test_field_eval_factors_each_gram_once(self, rng, counted):
        f, g = random_state(rng)
        field_eval(f, g, 1e-8)
        assert counted == {"cholesky": 2, "eigh": 1}

    def test_lorapro_direction(self, rng, counted):
        f, g = random_state(rng)
        lorapro_direction(f, g, 1e-8)
        assert counted == {"cholesky": 2, "eigh": 0}

    def test_riemannian_direction(self, rng, counted):
        f, g = random_state(rng)
        w_pt = np.zeros(f.shape)
        riemannian_step(f, w_pt, quadratic_objective(g, mu=1.0), 0.1, 1e-8)
        assert counted == {"cholesky": 2, "eigh": 0}

    def test_flow_rhs_full_and_eps_ratio(self, rng, counted):
        f, g = random_state(rng)
        flow_rhs_full(f, g, 1e-8)
        eps_ratio(f, g, 1e-8)
        assert counted == {"cholesky": 4, "eigh": 0}


class TestNonFiniteState:
    def test_is_a_value_error_raised_by_as_matrix(self):
        assert issubclass(NonFiniteState, ValueError)
        with pytest.raises(NonFiniteState):
            as_matrix([[1.0, np.inf]])
        with pytest.raises(NonFiniteState):
            LoRAFactors(a=np.full((1, 3), np.nan), b=np.ones((3, 1)))

    def test_gram_norm_overflow(self, rng):
        # A's entries and its Gram's entries are finite, but ||A A^T||_F
        # overflows: a state that has blown up, not a degenerate one
        a = 1e154 * np.eye(2, 5)
        f = LoRAFactors(a=a, b=rng.standard_normal((4, 2)))
        assert np.all(np.isfinite(gram_a(f, 1e-8)))
        g = rng.standard_normal((4, 5))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
            field_eval(f, g, 1e-8)

    def test_non_finite_gradient(self, rng):
        f, g = random_state(rng)
        g[0, 0] = np.nan
        with pytest.raises(NonFiniteState):
            field_eval(f, g)


@st.composite
def states(draw):
    """Random (factors, gradient, eps): r <= 4, m and n up to 9, factor and
    gradient scales log-uniform in [1e-6, 1e3]."""
    r = draw(st.integers(1, 4))
    m = draw(st.integers(r, 9))
    n = draw(st.integers(r, 9))
    scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    g_scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    eps = draw(st.sampled_from([0.0, 1e-8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = LoRAFactors(
        a=scale * rng.standard_normal((r, n)), b=scale * rng.standard_normal((m, r))
    )
    return f, g_scale * rng.standard_normal((m, n)), eps


def conditioning(f, eps):
    """Sum of the condition numbers of both regularized Grams."""
    return float(np.linalg.cond(gram_a(f, eps)) + np.linalg.cond(gram_b(f, eps)))


def assume_factorable(f, eps):
    """Skip draws whose Grams the kernel refuses (checked in its own test)."""
    try:
        FactorGrams(f, eps)
    except NotPositiveDefinite:
        hypothesis.reject()


class TestFieldProperties:
    @PROPERTY_SETTINGS
    @given(states())
    def test_effective_velocity_is_flow_rhs_full(self, state):
        f, g, eps = state
        assume_factorable(f, eps)
        fe = field_eval(f, g, eps)
        dw = f.b @ fe.f_a + fe.f_b @ f.a
        tol = 1e-13 * conditioning(f, eps) * np.linalg.norm(g)
        assert np.linalg.norm(dw - flow_rhs_full(f, g, eps)) <= tol

    @PROPERTY_SETTINGS
    @given(states())
    def test_tangent_to_balanced_manifold(self, state):
        # d/dt (A A^T - B^T B) along the field is 0 for eps = 0; with eps the
        # regularized Gram inverses leave eps (U + U^T - 4 X), where
        # U = (B^T B + eps I)^{-1} B^T G A^T (A A^T + eps I)^{-1}
        f, g, eps = state
        assume_factorable(f, eps)
        fe = field_eval(f, g, eps)
        a, b = f.a, f.b
        residual = fe.f_a @ a.T + a @ fe.f_a.T - fe.f_b.T @ b - b.T @ fe.f_b
        gb_inv_bt_g = np.linalg.solve(gram_b(f, eps), b.T @ g)
        g_at_ga_inv = np.linalg.solve(gram_a(f, eps), a @ g.T).T
        u = gb_inv_bt_g @ a.T @ np.linalg.inv(gram_a(f, eps))
        expected = eps * (u + u.T - 4.0 * fe.x)
        # the size of the terms that cancel in the residual
        norm = np.linalg.norm
        scale = (
            norm(gb_inv_bt_g) * norm(a)
            + norm(g_at_ga_inv) * norm(b)
            + norm(fe.x) * (norm(a) ** 2 + norm(b) ** 2)
            + eps * norm(u)
        )
        assert norm(residual - expected) <= 1e-13 * conditioning(f, eps) * scale

    @PROPERTY_SETTINGS
    @given(states())
    def test_eps_ratio_in_unit_interval(self, state):
        f, g, eps = state
        assume_factorable(f, eps)
        ratio = eps_ratio(f, g, eps)
        slack = 1e-15 * conditioning(f, eps)
        assert -slack <= ratio <= 1.0 + slack

    @PROPERTY_SETTINGS
    @given(states())
    def test_gauge_matches_kronecker_sylvester(self, state):
        f, g, eps = state
        assume_factorable(f, eps)
        x = field_eval(f, g, eps).x
        t = np.linalg.solve(gram_b(f, eps), f.b.T @ g @ f.a.T)
        x_oracle = kron_sylvester(gram_a(f, eps) + gram_b(f, eps), t + t.T)
        tol = 1e-13 * conditioning(f, eps) * np.linalg.norm(x_oracle)
        assert np.linalg.norm(x - x_oracle) <= tol

    @PROPERTY_SETTINGS
    @given(states(), st.sampled_from([0.5, 1.0, 2.0]))
    def test_rank_deficient_b_is_refused(self, state, c):
        f, g, _ = state
        b = f.b.copy()
        b[:, -1] = c * b[:, 0] if f.rank > 1 else 0.0
        degenerate = LoRAFactors(a=f.a, b=b)
        for kernel in (field_eval, flow_rhs_full, lorapro_direction):
            with pytest.raises(NotPositiveDefinite):
                kernel(degenerate, g, 0.0)

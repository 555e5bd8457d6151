import numpy as np
import pytest

from conftest import random_factors
from odelora.core import (
    LoRAFactors,
    gram_a,
    gram_b,
)
from odelora.linalg import NotPositiveDefinite
from oracles import (KKTOracle, dense_field, flow_rhs_full, kron_sylvester, null_projector_a,
                     null_projector_b)


class TestLoRAFactors:
    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            LoRAFactors(rng.standard_normal((3, 4)), rng.standard_normal((5, 2)))

    def test_rank_bound(self, rng):
        with pytest.raises(ValueError):
            LoRAFactors(rng.standard_normal((5, 4)), rng.standard_normal((6, 5)))

    def test_rejects_rank_zero(self):
        # a run from rank 0 would otherwise die inside the Gram factorization
        for a, b in ((np.zeros((0, 5)), np.zeros((5, 0))),
                     (np.zeros((3, 0, 5)), np.zeros((3, 5, 0)))):
            with pytest.raises(ValueError, match="rank 0 is below 1"):
                LoRAFactors(a, b)

    def test_rejects_non_finite(self, rng):
        a = rng.standard_normal((2, 4))
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            LoRAFactors(a, rng.standard_normal((5, 2)))

    def test_immutable_views(self, rng):
        f = random_factors(rng, 2, 4, 5)
        with pytest.raises(ValueError):
            f.a[0, 0] = 1.0


class TestGrams:
    def test_orthonormal_rows_give_identity(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        f = LoRAFactors(a=q[:, :2].T, b=rng.standard_normal((6, 2)))
        assert np.allclose(gram_a(f), np.eye(2), atol=1e-12)

    def test_zero_factor_with_eps(self):
        f = LoRAFactors(a=np.zeros((2, 5)), b=np.zeros((4, 2)))
        assert np.allclose(gram_a(f, 1e-8), 1e-8 * np.eye(2))
        assert np.allclose(gram_b(f, 1e-8), 1e-8 * np.eye(2))

    def test_double_loop_oracle(self, rng):
        a = rng.standard_normal((2, 5))
        f = LoRAFactors(a=a, b=rng.standard_normal((6, 2)))
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(5):
                    expected[i, j] += a[i, k] * a[j, k]
        assert np.allclose(gram_a(f), expected, atol=1e-12)
        bt = f.b.T
        expected_b = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(6):
                    expected_b[i, j] += bt[i, k] * bt[j, k]
        assert np.allclose(gram_b(f), expected_b, atol=1e-12)


class TestNullProjectors:
    def test_coordinate_subspace(self):
        n, r = 5, 2
        f = LoRAFactors(a=np.eye(n)[:r], b=np.ones((6, r)))
        expected = np.diag([0.0] * r + [1.0] * (n - r))
        assert np.allclose(null_projector_a(f), expected, atol=1e-12)

    def test_full_row_space_vanishes(self, rng):
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        f = LoRAFactors(a=a, b=rng.standard_normal((4, 3)))
        assert np.linalg.norm(null_projector_a(f)) <= 1e-10

    def test_projector_identities(self, rng):
        f = random_factors(rng, 3, 6, 7)
        for p, factor in ((null_projector_a(f), f.a.T), (null_projector_b(f), f.b)):
            assert np.linalg.norm(p @ p - p) <= 1e-10
            assert np.linalg.norm(p - p.T) <= 1e-12
            assert np.linalg.norm(p @ factor) <= 1e-10 * np.linalg.norm(factor)

    def test_propagates_degenerate_gram(self):
        f = LoRAFactors(a=np.zeros((2, 5)), b=np.zeros((4, 2)))
        with pytest.raises(NotPositiveDefinite):
            null_projector_a(f, 0.0)


class TestFieldEval:
    def test_zero_gradient_is_fixed_point(self, rng):
        f = random_factors(rng, 2, 5, 6)
        fe = dense_field(f, np.zeros((5, 6)))
        assert np.allclose(fe.f_a, 0.0) and np.allclose(fe.f_b, 0.0)
        assert np.allclose(fe.x, 0.0)

    def test_scalar_instance(self):
        f = LoRAFactors(a=[[1.0]], b=[[1.0]])
        g = np.array([[0.6]])
        fe = dense_field(f, g)
        # H = 2, C = 2 * 0.6, X = C / (2 H) = 0.3; F_A = -0.6 + 0.3 = -0.3
        assert fe.x[0, 0] == pytest.approx(0.3)
        assert fe.f_a[0, 0] == pytest.approx(-0.3)
        assert fe.f_b[0, 0] == pytest.approx(-0.3)
        dw = f.b @ fe.f_a + fe.f_b @ f.a
        assert dw[0, 0] == pytest.approx(-0.6)

    def test_gauge_matches_kronecker_sylvester(self, rng):
        for _ in range(20):
            r = int(rng.integers(1, 4))
            f = random_factors(rng, r, int(rng.integers(4, 9)), int(rng.integers(4, 9)))
            g = rng.standard_normal(f.shape)
            fe = dense_field(f, g)
            h = gram_a(f) + gram_b(f)
            t = np.linalg.solve(gram_b(f), f.b.T @ g @ f.a.T)
            x_oracle = kron_sylvester(h, t + t.T)
            assert np.linalg.norm(fe.x - x_oracle) <= 1e-9 * max(1.0, np.linalg.norm(x_oracle))

    def test_minimizes_constrained_matching_problem(self, rng):
        for _ in range(15):
            r = int(rng.integers(1, 4))
            f = random_factors(rng, r, int(rng.integers(4, 9)), int(rng.integers(4, 9)))
            g = rng.standard_normal(f.shape)
            fe = dense_field(f, g)
            oracle = KKTOracle(f.a, f.b, g)
            z_field = oracle.join(fe.f_a, fe.f_b)
            z_star = oracle.solve()
            # feasible, attains the oracle's minimum value, and lies in the
            # oracle's minimizer set (the set is an affine family; the gauge
            # has antisymmetric freedom for r >= 2, so pointwise equality is
            # only required where the minimizer is unique)
            assert oracle.constraint_residual(z_field) <= 1e-10 * max(1.0, np.linalg.norm(g))
            value_field = oracle.objective(z_field)
            value_star = oracle.objective(z_star)
            assert abs(value_field - value_star) <= 1e-8 * max(1.0, value_star)
            assert oracle.distance_to_solution_set(z_field) <= 1e-8 * max(
                1.0, np.linalg.norm(z_field)
            )
            if r == 1:
                assert np.linalg.norm(z_field - z_star) <= 1e-8 * max(
                    1.0, np.linalg.norm(z_star)
                )

    def test_effective_weight_identity(self, rng):
        for _ in range(10):
            f = random_factors(rng, 3, 6, 7)
            g = rng.standard_normal((6, 7))
            fe = dense_field(f, g)
            dw = f.b @ fe.f_a + fe.f_b @ f.a
            assert np.linalg.norm(dw - flow_rhs_full(f, g)) <= 1e-10 * np.linalg.norm(g)

    def test_balance_tangency(self, rng):
        for _ in range(10):
            f = random_factors(rng, 3, 6, 7)
            g = rng.standard_normal((6, 7))
            fe = dense_field(f, g)
            residual = (
                fe.f_a @ f.a.T + f.a @ fe.f_a.T - fe.f_b.T @ f.b - f.b.T @ fe.f_b
            )
            assert np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm(g))

    def test_gauge_norm_bound(self, rng):
        for _ in range(20):
            f = random_factors(rng, 3, 6, 7)
            g = rng.standard_normal((6, 7))
            fe = dense_field(f, g)
            eigs_a = np.linalg.eigvalsh(gram_a(f))
            eigs_b = np.linalg.eigvalsh(gram_b(f))
            gamma_min = min(eigs_a[0], eigs_b[0])
            gamma_max = max(eigs_a[-1], eigs_b[-1])
            bound = np.linalg.norm(g) * np.sqrt(gamma_max) / (2.0 * gamma_min**1.5)
            assert np.linalg.norm(fe.x) <= bound * (1.0 + 1e-9)

    def test_x_symmetry(self, rng):
        f = random_factors(rng, 4, 8, 9)
        fe = dense_field(f, rng.standard_normal((8, 9)))
        assert np.linalg.norm(fe.x - fe.x.T) <= 1e-12 * (1.0 + np.linalg.norm(fe.x))

    def test_eps_regularized_identity_still_holds(self, rng):
        # the induced weight velocity matches the projected form for any eps
        f = random_factors(rng, 3, 6, 7)
        g = rng.standard_normal((6, 7))
        for eps in (1e-8, 1e-2):
            fe = dense_field(f, g, eps)
            dw = f.b @ fe.f_a + fe.f_b @ f.a
            assert np.linalg.norm(dw - flow_rhs_full(f, g, eps)) <= 1e-10 * np.linalg.norm(g)

    def test_zero_b_start_with_eps(self, rng):
        f = LoRAFactors(a=rng.standard_normal((2, 6)), b=np.zeros((5, 2)))
        g = rng.standard_normal((5, 6))
        fe = dense_field(f, g, 1e-8)
        assert np.allclose(fe.f_a, 0.0, atol=1e-12)
        assert np.allclose(fe.x, 0.0, atol=1e-12)
        expected_fb = -np.linalg.solve(gram_a(f, 1e-8), (g @ f.a.T).T).T
        assert np.allclose(fe.f_b, expected_fb, atol=1e-10)


def effective_velocity(f, g, eps=0.0):
    """B F_A + F_B A, the full-weight velocity the field induces."""
    fe = dense_field(f, g, eps)
    return f.b @ fe.f_a + fe.f_b @ f.a


class TestFlowRhsFull:
    """The field's effective velocity is the flow's full-weight right-hand
    side ``-G + P_B^null G P_A^null``."""

    def test_zero(self, rng):
        f = random_factors(rng, 2, 4, 5)
        assert np.allclose(effective_velocity(f, np.zeros((4, 5))), 0.0)

    def test_square_invertible_factors(self, rng):
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        f = LoRAFactors(a=a, b=b)
        g = rng.standard_normal((3, 3))
        assert np.linalg.norm(effective_velocity(f, g) + g) <= 1e-10 * np.linalg.norm(g)

    def test_matches_projector_form(self, rng):
        f = random_factors(rng, 3, 6, 7)
        g = rng.standard_normal((6, 7))
        expected = flow_rhs_full(f, g)
        assert np.linalg.norm(effective_velocity(f, g) - expected) <= 1e-10 * np.linalg.norm(g)

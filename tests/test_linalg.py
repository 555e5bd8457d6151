import numpy as np
import pytest

from conftest import random_spd
from odelora.linalg import (
    DegenerateSpectrum,
    NonFiniteState,
    NotPositiveDefinite,
    inverse_cholesky,
    sylvester_eig,
    thin_svd,
)
from oracles import charpoly_from_traces, gauss_solve, kron_sylvester


def inverse_cholesky_solve(g, rhs):
    """G^{-1} rhs as the two products L^{-T} (L^{-1} rhs)."""
    inv = inverse_cholesky(g[None])[0]
    return inv.T @ (inv @ rhs)


class TestCholeskySolve:
    """``inverse_cholesky``, applied as a solve by ``inverse_cholesky_solve``."""

    def test_identity(self, rng):
        m = rng.standard_normal((2, 3))
        assert np.allclose(inverse_cholesky_solve(np.eye(2), m), m, atol=1e-14)

    def test_scalar(self):
        z = inverse_cholesky_solve(np.array([[2.0]]), np.array([[4.0]]))
        assert z[0, 0] == pytest.approx(2.0)

    def test_against_gaussian_elimination(self, rng):
        for _ in range(25):
            g = random_spd(rng, 3)
            rhs = rng.standard_normal((3, 2))
            z = inverse_cholesky_solve(g, rhs)
            assert np.linalg.norm(z - gauss_solve(g, rhs)) <= 1e-10

    def test_residual_bound_bulk(self, rng):
        for _ in range(1000):
            r = int(rng.integers(1, 9))
            g = random_spd(rng, r)
            rhs = rng.standard_normal((r, int(rng.integers(1, 4))))
            z = inverse_cholesky_solve(g, rhs)
            assert np.linalg.norm(g @ z - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            inverse_cholesky_solve(np.diag([1.0, -1.0]), np.ones((2, 1)))

    def test_rejects_near_singular(self):
        with pytest.raises(NotPositiveDefinite):
            inverse_cholesky_solve(np.diag([1.0, 1e-16]), np.ones((2, 1)))

    def test_stack_matches_single_bit_for_bit(self, rng):
        for _ in range(200):
            r = int(rng.integers(1, 9))
            grams = np.stack([random_spd(rng, r), random_spd(rng, r)])
            stacked = inverse_cholesky(grams)
            for k in range(2):
                assert np.array_equal(stacked[k], inverse_cholesky(grams[k : k + 1])[0])
            # a stack of states' Gram pairs, as FactorGrams builds for a stacked state
            pairs = np.stack([grams, grams[::-1], grams + np.eye(r)], axis=1)
            stacked = inverse_cholesky(pairs)
            for j in range(3):
                assert np.array_equal(stacked[:, j], inverse_cholesky(pairs[:, j]))

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.diag([1.0, 0.0]), NotPositiveDefinite),
            (np.diag([1.0, 1e-16]), NotPositiveDefinite),
            (np.diag([1e200, 1.0]), NonFiniteState),  # finite entries, ||G||_F overflows
            (np.diag([1.0, np.nan]), NonFiniteState),
        ],
    )
    def test_stack_raises_what_its_bad_gram_raises(self, rng, bad, error):
        with np.errstate(over="ignore"):
            with pytest.raises(error):
                inverse_cholesky(bad[None])
            with pytest.raises(error):
                inverse_cholesky(np.stack([random_spd(rng, 2), bad]))

    def test_norms_are_checked_before_any_factorization(self):
        # the first Gram alone raises NotPositiveDefinite, the second NonFiniteState
        with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
            inverse_cholesky(np.stack([np.diag([1.0, 0.0]), np.diag([1e200, 1.0])]))


class TestSymEig:
    """The eigendecomposition inside ``sylvester_eig``, read off its solutions."""

    def test_diagonal(self):
        c = np.array([[2.0, 4.0], [4.0, 6.0]])
        x = sylvester_eig(np.diag([1.0, 3.0]), c)
        assert np.allclose(x, c / np.array([[2.0, 4.0], [4.0, 6.0]]))

    def test_charpoly_against_trace_power_oracle(self, rng):
        # H X + X H = I gives X = (2H)^-1, whose trace is sum 1 / (2 lam_i);
        # from the characteristic polynomial, sum 1 / lam_i = -c_1 / c_0.
        h = random_spd(rng, 5)
        coeffs = charpoly_from_traces(h)
        expected = -coeffs[1] / (2.0 * coeffs[0])
        assert np.trace(sylvester_eig(h, np.eye(5))) == pytest.approx(expected, rel=1e-9)


class TestSylvesterSpd:
    """``sylvester_eig``, the SPD Sylvester solve."""

    def test_scalar(self):
        assert sylvester_eig(np.array([[2.0]]), np.array([[4.0]]))[0, 0] == pytest.approx(1.0)

    def test_zero_rhs(self):
        assert np.allclose(sylvester_eig(np.eye(3), np.zeros((3, 3))), 0.0)

    def test_against_kronecker_oracle(self, rng):
        for _ in range(50):
            r = int(rng.integers(1, 6))
            h = random_spd(rng, r)
            c = rng.standard_normal((r, r))
            c = c + c.T
            x = sylvester_eig(h, c)
            assert np.linalg.norm(x - x.T) <= 1e-12
            assert np.linalg.norm(h @ x + x @ h - c) <= 1e-10 * max(1.0, np.linalg.norm(c))
            assert np.linalg.norm(x - kron_sylvester(h, c)) <= 1e-9 * max(
                1.0, np.linalg.norm(x)
            )

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            sylvester_eig(np.diag([1.0, 0.0]), np.eye(2))

    def test_stack_matches_single_bit_for_bit(self, rng):
        for _ in range(200):
            r = int(rng.integers(1, 9))
            k = int(rng.integers(2, 5))
            h = np.stack([random_spd(rng, r) for _ in range(k)])
            c = rng.standard_normal((k, r, r))
            c = c + c.mT
            stacked = sylvester_eig(h, c)
            assert stacked.shape == (k, r, r)
            for j in range(k):
                assert np.array_equal(stacked[j], sylvester_eig(h[j], c[j]))

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_stack_with_one_degenerate_slice_raises(self, rng, slot):
        h = np.stack([random_spd(rng, 2) for _ in range(3)])
        h[slot] = np.diag([1.0, 0.0])
        with pytest.raises(DegenerateSpectrum):
            sylvester_eig(h, np.stack([np.eye(2)] * 3))


class TestThinSvd:
    def test_diagonal(self):
        m = np.zeros((3, 2))
        m[0, 0], m[1, 1] = 3.0, 1.0
        _, sigma, _ = thin_svd(m, 2)
        assert np.allclose(sigma, [3.0, 1.0])

    def test_isometry_rows(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        _, sigma, _ = thin_svd(q[:3], 3)
        assert np.allclose(sigma, 1.0, atol=1e-12)

    def test_low_rank_reconstruction(self, rng):
        m = np.zeros((6, 5))
        for _ in range(2):
            m += np.outer(rng.standard_normal(6), rng.standard_normal(5))
        u, sigma, v = thin_svd(m, 2)
        assert np.linalg.norm(m - (u * sigma) @ v.T) <= 1e-9 * np.linalg.norm(m)
        assert np.linalg.norm(u.T @ u - np.eye(2)) <= 1e-10
        assert np.linalg.norm(v.T @ v - np.eye(2)) <= 1e-10

    def test_tail_energy_and_order(self, rng):
        m = rng.standard_normal((6, 4))
        u, sigma, v = thin_svd(m, 2)
        assert np.all(sigma >= 0) and np.all(np.diff(sigma) <= 0)
        tail = np.linalg.svd(m, compute_uv=False)[2:]
        err = np.linalg.norm(m - (u * sigma) @ v.T)
        assert err == pytest.approx(np.sqrt(np.sum(tail**2)), abs=1e-9)

    def test_orthogonal_invariance(self, rng):
        m = rng.standard_normal((5, 4))
        ql, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        qr_, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        _, s1, _ = thin_svd(m, 4)
        _, s2, _ = thin_svd(ql @ m @ qr_, 4)
        assert np.linalg.norm(s1 - s2) <= 1e-10 * max(1.0, s1[0])

    def test_rank_validation(self, rng):
        with pytest.raises(ValueError):
            thin_svd(rng.standard_normal((3, 4)), 4)

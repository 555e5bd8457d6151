import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_spd
from odelora.linalg import (
    DegenerateSpectrum,
    NonFiniteState,
    NotPositiveDefinite,
    inverse_cholesky,
    sylvester_eig,
    thin_svd,
)
from oracles import charpoly_from_traces, dense_thin_svd, gauss_solve, kron_sylvester


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


@contextlib.contextmanager
def svd_operands():
    """Records the shape of every ``np.linalg.svd`` operand."""
    shapes, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    np.linalg.svd = recording
    try:
        yield shapes
    finally:
        np.linalg.svd = svd


def _orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


def low_rank_plus_noise(m, n, k, seed):
    """Rank k with singular values in [1, 10], plus Gaussian noise of
    spectral norm about 2e-3."""
    rng = np.random.default_rng(seed)
    d = np.sort(rng.uniform(1.0, 10.0, k))[::-1]
    noise = rng.standard_normal((m, n)) * 1e-3 / np.sqrt(max(m, n))
    return (_orthonormal(rng, m, k) * d) @ _orthonormal(rng, n, k).T + noise


def refused(kind, m, n, k, seed):
    """A matrix the certificate must refuse: a flat spectrum (min(m, n)
    singular values in [1, 2], so the tail outweighs sigma_k^2), a tie
    sigma_k = sigma_{k+1}, or zero."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "tie":
        d = np.sort(rng.uniform(1.0, 10.0, k))[::-1]
        d = np.append(d, d[-1])
    else:
        d = rng.uniform(1.0, 2.0, min(m, n))
    return (_orthonormal(rng, m, len(d)) * d) @ _orthonormal(rng, n, len(d)).T


@st.composite
def iterated_shapes(draw):
    """(m, n, k, seed) with a block of 2k + 4 < min(m, n) columns."""
    k = draw(st.integers(1, 4))
    m, n = draw(st.integers(2 * k + 5, 40)), draw(st.integers(2 * k + 5, 40))
    return m, n, k, draw(st.integers(0, 2**32 - 1))


@st.composite
def refused_cases(draw):
    """A flat, tied or zero matrix that the block iterates on, or a flat one
    with 2k + 4 >= min(m, n), which never iterates."""
    kind = draw(st.sampled_from(["flat", "tie", "zero", "narrow"]))
    m, n, k, seed = draw(iterated_shapes())
    if kind == "narrow":
        kind, m = "flat", draw(st.integers(k, 2 * k + 4))
        if draw(st.booleans()):
            m, n = n, m
    return kind, m, n, k, seed


class TestThinSvd:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(iterated_shapes())
    @example((40, 9, 2, 0))
    @example((9, 40, 2, 1))
    @example((30, 30, 4, 2))
    def test_certified_path_matches_dense_oracle(self, shape):
        m = low_rank_plus_noise(*shape)
        k = shape[2]
        with svd_operands() as shapes:
            u, sigma, v = thin_svd(m, k)
        assert m.shape not in shapes
        want_u, want_sigma, want_v = dense_thin_svd(m, k)
        full = np.linalg.svd(m, compute_uv=False)
        want = (want_u * want_sigma) @ want_v.T
        gap = full[k - 1] - full[k]
        assert np.linalg.norm((u * sigma) @ v.T - want) <= 1e-13 * full[0] ** 2 / gap
        assert np.all(np.abs(sigma - want_sigma) <= 1e-13 * want_sigma)
        assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-14
        assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-14
        for got, again in zip((u, sigma, v), thin_svd(m, k)):
            assert np.array_equal(got, again)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(refused_cases())
    @example(("tie", 20, 20, 2, 0))
    @example(("zero", 9, 9, 1, 0))
    def test_refused_inputs_take_the_dense_path(self, case):
        m, k = refused(*case), case[3]
        for got, want in zip(thin_svd(m, k), dense_thin_svd(m, k)):
            assert np.array_equal(got, want)

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

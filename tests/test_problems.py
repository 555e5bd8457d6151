import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from odelora.cli import Experiment
from odelora.config import parse_config
from odelora.core import LoRAFactors
from odelora.metrics import balance_defect, sensing_eps_certificate
from odelora.problems import (
    InvalidDelta,
    SensingProblem,
    _unit_balanced_truth,
    aligned_zero_b_init,
    balanced_init,
    make_regression_instance,
    make_regression_stack,
    make_rip_sensing,
    make_sensing_instance,
    perturbed_balanced_init,
    quadratic_objective,
    regression_objective,
    sensing_objective,
    zero_b_init,
)
from oracles import dense_unit_balanced_truth, gradient_probe_error


class TestMakeRipSensing:
    def test_delta_zero_is_isometry(self, rng):
        s = make_rip_sensing(12, 12, 0.0, 0)
        for _ in range(100):
            w = rng.standard_normal((5, 12))
            assert abs(np.linalg.norm(w @ s) - np.linalg.norm(w)) <= 1e-10 * np.linalg.norm(w)

    @pytest.mark.parametrize("delta", [0.05, 0.1])
    def test_spectrum_certifies_delta(self, delta):
        s = make_rip_sensing(20, 20, delta, 1)
        sigma = np.linalg.svd(s, compute_uv=False)
        assert sigma.max() == pytest.approx(np.sqrt(1.0 + delta), abs=1e-12)
        assert sigma.min() == pytest.approx(np.sqrt(1.0 - delta), abs=1e-12)
        assert np.all(sigma**2 <= 1.0 + delta + 1e-12)
        assert np.all(sigma**2 >= 1.0 - delta - 1e-12)

    def test_norm_bounds_and_attainment(self, rng):
        delta = 0.1
        s = make_rip_sensing(15, 15, delta, 2)
        for _ in range(50):
            w = rng.standard_normal((4, 15)) @ np.diag(rng.standard_normal(15))
            rank2 = w[:2]
            q = np.linalg.norm(rank2 @ s) ** 2 / np.linalg.norm(rank2) ** 2
            assert 1.0 - delta - 1e-12 <= q <= 1.0 + delta + 1e-12
        u, _, vt = np.linalg.svd(s)
        # rows aligned with the extreme singular directions attain the bounds
        top = np.outer(np.ones(1), u[:, 0])
        bottom = np.outer(np.ones(1), u[:, -1])
        assert np.linalg.norm(top @ s) ** 2 == pytest.approx(1.0 + delta, abs=1e-10)
        assert np.linalg.norm(bottom @ s) ** 2 == pytest.approx(1.0 - delta, abs=1e-10)

    def test_rejects_bad_delta(self):
        with pytest.raises(InvalidDelta):
            make_rip_sensing(8, 8, 1.5, 0)
        with pytest.raises(InvalidDelta):
            make_rip_sensing(8, 8, -0.1, 0)

    def test_rectangular_supported(self):
        s = make_rip_sensing(10, 6, 0.05, 0)
        assert s.shape == (10, 6)
        sigma = np.linalg.svd(s, compute_uv=False)
        assert np.all(sigma**2 <= 1.05 + 1e-12)

    def test_deterministic_in_seed(self):
        assert np.array_equal(make_rip_sensing(9, 9, 0.05, 4), make_rip_sensing(9, 9, 0.05, 4))


@st.composite
def truth_shapes(draw):
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    return m, n, draw(st.integers(1, min(m, n))), draw(st.integers(0, 2**32 - 1))


class TestUnitBalancedTruth:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(truth_shapes())
    @example((5, 9, 1, 0))
    @example((9, 5, 5, 1))
    @example((7, 7, 7, 2))
    def test_matches_dense_construction(self, shape):
        m, n, r, seed = shape
        star = _unit_balanced_truth(np.random.default_rng(seed), m, n, r)
        dense = dense_unit_balanced_truth(np.random.default_rng(seed), m, n, r)
        want = dense.b @ dense.a
        # both routes carry an absolute round-off of order eps * sigma_1 in
        # sigma_r, which rescales the product by eps * cond relative
        cond = np.linalg.norm(want, 2)
        assert np.linalg.norm(star.b @ star.a - want) <= 1e-14 * cond * np.linalg.norm(want)
        gram = star.a @ star.a.T
        assert np.linalg.norm(gram - star.b.T @ star.b) <= 1e-13 * np.linalg.norm(gram)
        for factor in (star.a, star.b):
            assert np.linalg.svd(factor, compute_uv=False)[-1] == pytest.approx(1.0, abs=1e-12)

    def test_no_dense_svd_builds_the_truth(self, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        make_sensing_instance(30, 20, 20, 3, 0.05, 0)
        # a zero-B start makes no SVD, so every call is the ground truth's
        Experiment(parse_config("[problem]\nkind = quadratic\nm = 30\nn = 20\nr = 3\n"
                                "[init]\nscheme = zero_b\n"))
        assert shapes == [(3, 3), (3, 3)]


class TestSensingObjective:
    def test_ground_truth_is_optimal(self):
        p = make_sensing_instance(8, 9, 9, 2, 0.05, 0)
        obj = sensing_objective(p)
        w_star = p.w_pt + p.b_star @ p.a_star
        assert obj.loss(w_star) <= 1e-20
        assert np.linalg.norm(obj.grad(w_star)) <= 1e-10

    def test_identity_sensing_gradient(self, rng):
        m, n, r = 5, 6, 2
        b_star = rng.standard_normal((m, r))
        a_star = rng.standard_normal((r, n))
        w_pt = rng.standard_normal((m, n))
        p = SensingProblem(
            s=np.eye(n), y=w_pt + b_star @ a_star, w_pt=w_pt,
            a_star=a_star, b_star=b_star, delta=0.0,
        )
        obj = sensing_objective(p)
        b = rng.standard_normal((m, r))
        a = rng.standard_normal((r, n))
        g = obj.grad(w_pt + b @ a)
        assert np.allclose(g, b @ a - b_star @ a_star, atol=1e-12)

    def test_finite_difference_gradient(self, rng):
        p = make_sensing_instance(6, 7, 7, 2, 0.1, 1)
        obj = sensing_objective(p)
        w = rng.standard_normal((6, 7))
        assert gradient_probe_error(obj, w, rng) <= 1e-6

    def test_hessian_action_spectrum_via_power_iteration(self):
        # the loss curvature acts as W -> W S S^T; its spectrum must sit in
        # [1 - delta, 1 + delta] with both ends attained
        delta = 0.1
        p = make_sensing_instance(6, 12, 12, 2, delta, 3)
        op = p.s @ p.s.T
        v = np.ones(12) / np.sqrt(12)
        for _ in range(2000):
            v = op @ v
            v /= np.linalg.norm(v)
        lam_max = float(v @ op @ v)
        shifted = (1.0 + delta + 0.05) * np.eye(12) - op
        v = np.ones(12) / np.sqrt(12)
        for _ in range(2000):
            v = shifted @ v
            v /= np.linalg.norm(v)
        lam_min = (1.0 + delta + 0.05) - float(v @ shifted @ v)
        assert lam_max == pytest.approx(1.0 + delta, abs=1e-6)
        assert lam_min == pytest.approx(1.0 - delta, abs=1e-6)


class TestQuadraticObjective:
    def test_examples(self, rng):
        w_star = rng.standard_normal((3, 4))
        obj = quadratic_objective(w_star, mu=2.0, w_pt=np.zeros_like(w_star))
        assert obj.loss(w_star) == 0.0
        assert obj.loss(w_star + np.ones((3, 4))) == pytest.approx(12.0)  # (mu/2)*12
        assert gradient_probe_error(obj, rng.standard_normal((3, 4)), rng) <= 1e-6

    def test_identity_shift_example(self):
        w_star = np.zeros((2, 2))
        obj = quadratic_objective(w_star, mu=2.0, w_pt=np.zeros_like(w_star))
        assert obj.loss(np.eye(2)) == pytest.approx(2.0)


class TestRegressionObjective:
    def test_zero_residual(self, rng):
        p = make_regression_instance(10, 8, 0)
        obj = regression_objective(p)
        w = np.outer(p.y, p.s) / (p.s @ p.s)
        assert obj.loss(w) <= 1e-20

    def test_gradient_is_rank_one(self, rng):
        p = make_regression_instance(10, 8, 0)
        obj = regression_objective(p)
        g = obj.grad(rng.standard_normal((8, 10)))
        sigma = np.linalg.svd(g, compute_uv=False)
        assert sigma[1] <= 1e-12 * sigma[0]

    def test_finite_difference_gradient(self, rng):
        p = make_regression_instance(9, 7, 2)
        obj = regression_objective(p)
        assert gradient_probe_error(obj, rng.standard_normal((7, 9)), rng) <= 1e-6


class TestBalancedInit:
    def test_idempotent_on_balanced_pairs(self, rng):
        f0 = balanced_init(rng.standard_normal((6, 3)) @ rng.standard_normal((3, 7)), 3)
        again = balanced_init(f0.delta(), 3)
        assert np.linalg.norm(again.delta() - f0.delta()) <= 1e-10 * np.linalg.norm(f0.delta())
        assert balance_defect(again) <= 1e-10

    def test_diagonal_example(self):
        f = balanced_init(np.diag([4.0, 1.0]), 2)
        gram = f.a @ f.a.T
        assert np.allclose(np.sort(np.diag(gram))[::-1], [4.0, 1.0], atol=1e-12)
        assert balance_defect(f) <= 1e-12

    def test_reconstruction_and_defect_over_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            w = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 6))
            f = balanced_init(w, 3)
            assert np.linalg.norm(f.delta() - w) <= 1e-9 * np.linalg.norm(w)
            gram = f.a @ f.a.T
            assert balance_defect(f) <= 1e-10 * max(1.0, np.linalg.norm(gram))

    def test_no_dense_svd_builds_the_start(self, monkeypatch):
        problem = make_sensing_instance(200, 150, 150, 3, 0.05, 0)
        shapes = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        perturbed_balanced_init(problem, 0.8, 0.05, 0)
        assert shapes and (200, 150) not in shapes


class TestZeroBInit:
    def test_unit_rows_and_zero_b(self):
        f = zero_b_init(12, 9, 3, 0)
        assert np.allclose(np.linalg.norm(f.a, axis=1), 1.0, atol=1e-12)
        assert np.all(f.b == 0.0) and f.b.shape == (9, 3)

    def test_aligned_rows_stay_unit(self, rng):
        direction = rng.standard_normal(20)
        f = zero_b_init(20, 10, 4, 0, align=direction)
        assert np.allclose(np.linalg.norm(f.a, axis=1), 1.0, atol=1e-12)

    def test_aligned_signal_is_dimension_free(self):
        # ||A s|| must stay Theta(sqrt(r)) across dimensions when A carries a
        # fixed overlap with s; generic unit rows would decay like n^{-1/2}
        r = 4
        for n in (64, 256, 1024):
            for seed in range(100):
                p = make_regression_instance(n, n, seed)
                f = zero_b_init(n, n, r, np.random.SeedSequence([seed, 1]), align=p.s)
                signal = np.linalg.norm(f.a @ p.s)
                assert 0.05 * np.sqrt(r) <= signal <= 3.0 * np.sqrt(r)


class TestAlignedZeroBInit:
    def test_draws_from_the_start_stream(self):
        p = make_regression_instance(30, 20, 5)
        f = aligned_zero_b_init(p.s, 20, 3, 5)
        want = zero_b_init(30, 20, 3, np.random.SeedSequence([5, 1]), align=p.s)
        assert np.array_equal(f.a, want.a) and np.array_equal(f.b, want.b)

    def test_shared_seed_keeps_fixed_overlap(self):
        # the instance and the start share the seed, as under ``--seed N``
        for seed in range(20):
            p = make_regression_instance(40, 40, seed)
            f = aligned_zero_b_init(p.s, 40, 4, seed)
            assert np.allclose(f.a @ p.s, 0.5, atol=1e-12)


class TestMakeRegressionInstance:
    def test_exact_normalizations(self):
        for seed in range(20):
            p = make_regression_instance(50, 40, seed)
            assert np.linalg.norm(p.s) == pytest.approx(1.0, abs=1e-13)
            assert np.linalg.norm(p.w_pt @ p.s - p.y) == pytest.approx(1.0, abs=1e-12)

    def test_base_output_scale(self):
        for n in (64, 256, 1024):
            for seed in range(20):
                p = make_regression_instance(n, n, seed)
                assert 0.3 <= np.linalg.norm(p.w_pt @ p.s) <= 3.0


# Prints a digest of the blocked regression stacks and instances, as a
# child process at the BLAS thread count of its argument. At one thread it
# first checks them, bit for bit, against the dense draw and the full
# products W_pt @ s that both were once built from: at m = 1025 the rows
# form 15 blocks of 64 and one of 65, and at m = 193 two of 64 and one of 65.
_BLOCKED_DRAW = """
import hashlib, sys
import numpy as np
from odelora.problems import make_regression_instance, make_regression_stack
digest = hashlib.sha256()
for n, m in ((1025, 1025), (70, 193), (300, 64), (1100, 130), (9, 5)):
    stack = make_regression_stack(n, m, [4, 0])
    for j, seed in enumerate([4, 0]):
        p = make_regression_instance(n, m, seed)
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(n)
        s /= np.linalg.norm(s)
        w_pt = rng.standard_normal((m, n)) / np.sqrt(n)
        u = rng.standard_normal(m)
        u /= np.linalg.norm(u)
        assert stack.s[j].tobytes() == p.s.tobytes() == s.tobytes(), (n, m)
        assert p.w_pt.tobytes() == w_pt.tobytes(), (n, m)
        if sys.argv[1] == "1":
            y = w_pt @ s + u
            assert p.y.tobytes() == y.tobytes(), (n, m)
            assert stack.offset[j].tobytes() == (w_pt @ s - y).tobytes(), (n, m)
        digest.update(p.y.tobytes() + stack.offset[j].tobytes())
print(digest.hexdigest())
"""


def test_blocked_draw_keeps_the_dense_bits_at_any_thread_count():
    import odelora

    def digest(threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(odelora.__file__).parents[1])}
        child = subprocess.run([sys.executable, "-c", _BLOCKED_DRAW, threads], env=env,
                               capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        return child.stdout

    assert digest("1") == digest("2")


class TestCertificate:
    def test_vanishes_at_ground_truth_with_zero_delta(self):
        p = make_sensing_instance(8, 9, 9, 2, 0.0, 0)
        f0 = LoRAFactors(a=p.a_star, b=p.b_star)
        assert sensing_eps_certificate(p, f0) <= 1e-9

    def test_delta_zero_collapses_to_mismatch_norm(self, rng):
        p = make_sensing_instance(8, 9, 9, 2, 0.0, 0)
        f = balanced_init(0.7 * p.b_star @ p.a_star, 2)
        cert = sensing_eps_certificate(p, f)
        mismatch = np.linalg.norm(f.delta() - p.b_star @ p.a_star)
        # smin(A*) = smin(B*) = 1 by construction and S is orthogonal
        assert cert == pytest.approx(mismatch, rel=1e-10)

    def test_ground_truth_normalization(self):
        p = make_sensing_instance(10, 12, 12, 3, 0.05, 4)
        assert np.linalg.svd(p.a_star, compute_uv=False)[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.svd(p.b_star, compute_uv=False)[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(p.y, (p.w_pt + p.b_star @ p.a_star) @ p.s, atol=1e-12)

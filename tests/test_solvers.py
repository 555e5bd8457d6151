import dataclasses
import inspect

import numpy as np
import pytest

import odelora.solvers as solvers_mod
from conftest import random_factors
from odelora.core import (
    FactorGrams,
    FieldEval,
    LoRAFactors,
    Objective,
    effective_weight,
    field_eval,
    gradient_sides,
)
from odelora.diagnostics import _integrate_weight, _seed_stack, estimate_order
from odelora.linalg import NotPositiveDefinite
from odelora.metrics import balance_defect
from odelora.problems import (
    aligned_zero_b_init,
    balanced_init,
    make_regression_instance,
    make_sensing_instance,
    perturbed_balanced_init,
    quadratic_objective,
    regression_objective,
    sensing_objective,
    zero_b_init,
)
from odelora.solvers import (
    Scheme,
    SolverConfig,
    _lorapro_direction,
    classical_gd_step,
    full_ft_step,
    lorapro_step,
    ode_euler_step,
    ode_rk2_step,
    ode_rk4_step,
    riemannian_step,
    run_stack,
    run_trajectory,
)
from oracles import flow_rhs_full

class ConstantGradient(Objective):
    """Linear objective: loss = <G0, W>, gradient identically G0."""

    def __init__(self, g0, w_pt):
        self.g0 = np.asarray(g0, dtype=np.float64)
        self.w_pt = w_pt

    def loss(self, w):
        return float(np.sum(self.g0 * w))

    def grad(self, w):
        return self.g0


class CountingObjective(Objective):
    """Delegates to another objective and counts its gradient evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.w_pt = inner.w_pt
        self.optimum_w = inner.optimum_w
        self.grads = 0

    def loss(self, w):
        return self.inner.loss(w)

    def grad(self, w):
        self.grads += 1
        return self.inner.grad(w)


def row_values(log):
    """Every logged value but the wall clock, as exact reprs (nan == nan)."""
    return repr([dataclasses.replace(row, wall_nanos=0) for row in log.rows])


def quadratic_fixture(rng, r=3, m=6, n=7):
    f = random_factors(rng, r, m, n)
    w_pt = rng.standard_normal((m, n))
    return f, w_pt, quadratic_objective(w_pt + rng.standard_normal((m, n)), mu=1.0, w_pt=w_pt)


class TestFixedPoints:
    @pytest.mark.parametrize("scheme", Scheme)
    def test_every_scheme_fixes_zero_gradient_states(self, rng, scheme):
        f = random_factors(rng, 2, 5, 6)
        w_pt = rng.standard_normal((5, 6))
        w = effective_weight(w_pt, f)
        obj = quadratic_objective(w, mu=2.0, w_pt=w_pt)  # optimum here
        state = w if scheme is Scheme.FULL_FT else f
        out = solvers_mod._step_for(scheme)(state, obj, 0.25, 1e-8)
        if scheme is Scheme.FULL_FT:
            assert np.array_equal(out, w)
        else:
            assert np.array_equal(out.a, f.a) and np.array_equal(out.b, f.b)


class TestOdeEuler:
    def test_scalar_derivation(self):
        f = LoRAFactors(a=[[1.0]], b=[[1.0]])
        g = 0.8
        out = ode_euler_step(f, ConstantGradient([[g]], np.zeros((1, 1))), 0.1, eps=0.0)
        assert out.a[0, 0] == pytest.approx(1.0 - 0.05 * g)
        assert out.b[0, 0] == pytest.approx(1.0 - 0.05 * g)

    def test_first_order_against_fine_reference(self, rng):
        p = make_sensing_instance(8, 8, 8, 2, 0.05, 3)
        obj = sensing_objective(p)
        f0 = perturbed_balanced_init(p, 0.8, 0.05, 3)
        horizon = 0.4

        def defect(h):
            state = f0
            for _ in range(round(horizon / h)):
                state = ode_euler_step(state, obj, h, 1e-8)
            ref = f0
            h_ref = h / 64
            for _ in range(round(horizon / h_ref)):
                ref = ode_rk4_step(ref, obj, h_ref, 1e-8)
            return np.linalg.norm(
                effective_weight(p.w_pt, state) - effective_weight(p.w_pt, ref)
            )

        ratio = defect(0.1) / defect(0.05)
        assert 1.7 <= ratio <= 2.3


class TestOdeRk2:
    def test_matches_second_order_taylor(self, rng):
        # compare one step against u0 + h F + (h^2/2) F'F with F'F from a
        # nested field evaluation along the flow direction
        f, w_pt, obj = quadratic_fixture(rng)
        h, tau = 1e-3, 1e-6

        def field_at(state):
            return field_eval(state, obj.grad(effective_weight(w_pt, state)), 0.0)

        k1 = field_at(f)
        nudged = f.move(k1.f_a, k1.f_b, tau)
        k_tau = field_at(nudged)
        dfa = (k_tau.f_a - k1.f_a) / tau
        dfb = (k_tau.f_b - k1.f_b) / tau
        taylor_a = f.a + h * k1.f_a + 0.5 * h**2 * dfa
        taylor_b = f.b + h * k1.f_b + 0.5 * h**2 * dfb
        out = ode_rk2_step(f, obj, h, eps=0.0)
        scale = np.linalg.norm(k1.f_a) + np.linalg.norm(k1.f_b)
        err = np.linalg.norm(out.a - taylor_a) + np.linalg.norm(out.b - taylor_b)
        assert err <= 50.0 * h**3 * max(1.0, scale)

    def test_second_order_richardson(self):
        p = make_sensing_instance(8, 8, 8, 2, 0.05, 3)
        obj = sensing_objective(p)
        f0 = perturbed_balanced_init(p, 0.8, 0.05, 3)
        horizon = 0.4

        ref = f0
        h_ref = 0.4 / 2048
        for _ in range(2048):
            ref = ode_rk4_step(ref, obj, h_ref, 1e-8)
        w_ref = effective_weight(p.w_pt, ref)

        def defect(h):
            state = f0
            for _ in range(round(horizon / h)):
                state = ode_rk2_step(state, obj, h, 1e-8)
            return np.linalg.norm(effective_weight(p.w_pt, state) - w_ref)

        order = np.log2(defect(0.1) / defect(0.05))
        assert 1.7 <= order <= 2.3


class TestOdeRk4:
    def test_constant_field_collapses_to_euler(self, rng, monkeypatch):
        f = random_factors(rng, 2, 5, 6)
        w_pt = np.zeros((5, 6))
        obj = ConstantGradient(rng.standard_normal((5, 6)), w_pt)
        frozen = FieldEval(
            f_a=rng.standard_normal((2, 6)),
            f_b=rng.standard_normal((5, 2)),
            x=np.zeros((2, 2)),
        )
        monkeypatch.setattr(solvers_mod, "field_eval_sides", lambda *a, **k: frozen)
        out = ode_rk4_step(f, obj, 0.3, 1e-8)
        assert np.allclose(out.a, f.a + 0.3 * frozen.f_a, atol=1e-14)
        assert np.allclose(out.b, f.b + 0.3 * frozen.f_b, atol=1e-14)

    def test_fourth_order_richardson(self):
        p = make_sensing_instance(8, 8, 8, 2, 0.05, 3)
        obj = sensing_objective(p)
        f0 = perturbed_balanced_init(p, 0.8, 0.05, 3)
        horizon = 0.4

        ref = f0
        h_ref = 0.4 / 4096
        for _ in range(4096):
            ref = ode_rk4_step(ref, obj, h_ref, 1e-8)
        w_ref = effective_weight(p.w_pt, ref)

        def defect(h):
            state = f0
            for _ in range(round(horizon / h)):
                state = ode_rk4_step(state, obj, h, 1e-8)
            return np.linalg.norm(effective_weight(p.w_pt, state) - w_ref)

        order = np.log2(defect(0.1) / defect(0.05))
        assert 3.5 <= order <= 4.5


class TestClassicalGd:
    def test_zero_b_structure(self, rng):
        a = rng.standard_normal((2, 6))
        f = LoRAFactors(a=a, b=np.zeros((5, 2)))
        w_pt = rng.standard_normal((5, 6))
        obj = quadratic_objective(rng.standard_normal((5, 6)), mu=1.0, w_pt=w_pt)
        g = obj.grad(effective_weight(w_pt, f))
        out = classical_gd_step(f, obj, 0.2)
        assert np.array_equal(out.a, f.a)
        assert np.allclose(out.b, -0.2 * g @ a.T, atol=1e-14)

    def test_factor_gradients_match_finite_differences(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)
        h = 0.05
        out = classical_gd_step(f, obj, h)
        da = (out.a - f.a) / -h  # implemented gradient w.r.t. A
        db = (out.b - f.b) / -h
        step = 1e-6

        def loss_of(a, b):
            return obj.loss(w_pt + b @ a)

        for _ in range(10):
            d = rng.standard_normal(f.a.shape)
            d /= np.linalg.norm(d)
            fd = (loss_of(f.a + step * d, f.b) - loss_of(f.a - step * d, f.b)) / (2 * step)
            assert abs(fd - np.sum(da * d)) <= 1e-6 * max(1.0, abs(fd))
            e = rng.standard_normal(f.b.shape)
            e /= np.linalg.norm(e)
            fd_b = (loss_of(f.a, f.b + step * e) - loss_of(f.a, f.b - step * e)) / (2 * step)
            assert abs(fd_b - np.sum(db * e)) <= 1e-6 * max(1.0, abs(fd_b))


class TestRiemannian:
    def test_orthonormal_factors_reduce_to_classical(self, rng):
        qa, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        qb, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        f = LoRAFactors(a=qa[:, :2].T, b=qb[:, :2])
        w_pt = rng.standard_normal((5, 6))
        obj = quadratic_objective(rng.standard_normal((5, 6)), mu=1.0, w_pt=w_pt)
        out_r = riemannian_step(f, obj, 0.1, eps=0.0)
        out_c = classical_gd_step(f, obj, 0.1)
        assert np.allclose(out_r.a, out_c.a, atol=1e-12)
        assert np.allclose(out_r.b, out_c.b, atol=1e-12)

    def test_preconditioned_directions(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)
        g = obj.grad(effective_weight(w_pt, f))
        out = riemannian_step(f, obj, 0.1, eps=0.0)
        da = np.linalg.solve(f.b.T @ f.b, f.b.T @ g)
        db = (g @ f.a.T) @ np.linalg.inv(f.a @ f.a.T)
        assert np.linalg.norm(out.a - (f.a - 0.1 * da)) <= 1e-10
        assert np.linalg.norm(out.b - (f.b - 0.1 * db)) <= 1e-10


class TestLoraPro:
    def test_effective_direction_matches_projected_flow(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)
        g = obj.grad(effective_weight(w_pt, f))
        da, db = _lorapro_direction(f, gradient_sides(f, g), 0.0)
        assert np.linalg.norm(
            f.b @ da + db @ f.a - flow_rhs_full(f, g)
        ) <= 1e-10 * np.linalg.norm(g)

    def test_differs_from_flow_step_by_gauge(self, rng):
        p = make_sensing_instance(6, 7, 7, 2, 0.0, 5)
        obj = sensing_objective(p)
        f = balanced_init(0.7 * p.b_star @ p.a_star, 2)
        g = obj.grad(effective_weight(p.w_pt, f))
        h = 0.1
        fe = field_eval(f, g, 0.0)
        pro = lorapro_step(f, obj, h, eps=0.0)
        euler = ode_euler_step(f, obj, h, eps=0.0)
        assert np.allclose(euler.a - pro.a, h * fe.x @ f.a, atol=1e-10)
        assert np.allclose(euler.b - pro.b, -h * f.b @ fe.x, atol=1e-10)

    def test_effective_dynamic_coincidence_is_second_order(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)

        def gap(h):
            pro = lorapro_step(f, obj, h, eps=0.0)
            euler = ode_euler_step(f, obj, h, eps=0.0)
            return np.linalg.norm(pro.delta() - euler.delta())

        ratio = gap(0.1) / gap(0.05)
        assert 3.4 <= ratio <= 4.6


class TestFullFineTune:
    def test_quadratic_contraction(self, rng):
        w_star = rng.standard_normal((4, 5))
        obj = quadratic_objective(w_star, mu=1.0, w_pt=np.zeros((4, 5)))
        w = rng.standard_normal((4, 5))
        for h in (0.3, 0.9, 1.5):
            w_next = full_ft_step(w, obj, h)
            assert np.linalg.norm(w_next - w_star) == pytest.approx(
                abs(1.0 - h) * np.linalg.norm(w - w_star), rel=1e-12
            )

    def test_strict_descent_at_smoothness_step(self):
        p = make_sensing_instance(10, 10, 10, 2, 0.1, 7)
        obj = sensing_objective(p)
        h = 1.0 / (1.0 + p.delta)
        w = p.w_pt + 0.3 * p.b_star @ p.a_star
        for _ in range(50):
            w_next = full_ft_step(w, obj, h)
            if obj.loss(w) <= 1e-20:  # numerical floor reached
                break
            assert obj.loss(w_next) < obj.loss(w)
            w = w_next


class TestBalancePreservation:
    def test_per_step_defect_growth_order(self):
        # the flow conserves A A^T - B^T B, so a p-th order one-step method
        # leaks O(h^{p+1}) per step; ratio windows are [2^{p+1} 0.7, 2^{p+1} 1.4]
        p = make_sensing_instance(40, 40, 40, 4, 0.05, 0)
        obj = sensing_objective(p)
        f0 = perturbed_balanced_init(p, 0.8, 0.05, 0)

        def defect_after(step_fn, h, steps):
            state = f0
            for _ in range(steps):
                state = step_fn(state, obj, h, 1e-8)
            return balance_defect(state)

        cases = (
            (ode_euler_step, 1, 1),
            (ode_rk2_step, 2, 10),
            (ode_rk4_step, 4, 1),
        )
        for step_fn, order, steps in cases:
            ratio = defect_after(step_fn, 0.1, steps) / defect_after(step_fn, 0.05, steps)
            lo, hi = 2 ** (order + 1) * 0.7, 2 ** (order + 1) * 1.4
            assert lo <= ratio <= hi, (step_fn.__name__, ratio)


def test_solver_config_rejects_non_finite_step_and_eps():
    good = SolverConfig(Scheme.ODE_RK4, 0.1, 1)
    for field in ("step_size", "eps_reg"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                dataclasses.replace(good, **{field: bad})


class TestRunTrajectory:
    def test_zero_iterations_logs_initial_row(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)
        log = run_trajectory(f, obj, SolverConfig(Scheme.ODE_RK4, 0.1, 0))
        assert len(log.rows) == 1 and not log.diverged
        assert log.rows[0].iter == 0

    def test_row_count_and_fields(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)
        log = run_trajectory(f, obj, SolverConfig(Scheme.ODE_RK2, 0.1, 7))
        assert len(log.rows) == 8
        for row in log.rows:
            assert row.balance_defect is not None and row.eps_ratio is not None
            assert row.dist_to_opt is not None

    def test_monotone_rk4_sensing(self):
        p = make_sensing_instance(40, 40, 40, 4, 0.05, 0)
        obj = sensing_objective(p)
        f0 = perturbed_balanced_init(p, 0.8, 0.05, 0)
        log = run_trajectory(f0, obj, SolverConfig(Scheme.ODE_RK4, 0.1, 60))
        losses = log.losses()
        assert np.all(np.diff(losses) <= 0)

    def test_divergence_recorded_not_raised(self):
        p = make_sensing_instance(40, 40, 40, 4, 0.05, 0)
        obj = sensing_objective(p)
        f0 = perturbed_balanced_init(p, 0.8, 0.05, 0)
        log = run_trajectory(f0, obj, SolverConfig(Scheme.CLASSICAL_GD, 1.0, 200))
        assert log.diverged
        assert len(log.rows) < 201

    def test_raised_step_failure_gets_a_final_row(self, rng, monkeypatch):
        # run_stack steps every factor cell through the engine, _rk_step
        f, w_pt, obj = quadratic_fixture(rng)
        calls = []
        real = solvers_mod._rk_step

        def failing_step(*args):
            calls.append(1)
            if len(calls) == 3:
                raise NotPositiveDefinite("Gram lost definiteness")
            return real(*args)

        monkeypatch.setattr(solvers_mod, "_rk_step", failing_step)
        log = run_trajectory(f, obj, SolverConfig(Scheme.ODE_RK4, 0.1, 10))
        assert log.diverged
        assert [row.iter for row in log.rows] == [0, 1, 2, 3]
        last = log.rows[-1]
        assert np.isnan(last.loss) and np.isnan(last.grad_norm)
        assert last.balance_defect is None and last.eps_ratio is None
        assert np.isfinite(log.rows[-2].loss)

    def test_programming_error_in_a_step_propagates(self, rng, monkeypatch):
        f, w_pt, obj = quadratic_fixture(rng)

        def buggy_step(*args):
            raise ValueError("not a divergence")

        monkeypatch.setattr(solvers_mod, "_rk_step", buggy_step)
        with pytest.raises(ValueError, match="not a divergence"):
            run_trajectory(f, obj, SolverConfig(Scheme.ODE_RK4, 0.1, 3))

    def test_linalg_error_in_a_step_propagates(self, rng, monkeypatch):
        # the kernel turns LAPACK failures into its own exceptions, so a bare
        # LinAlgError is a bug (a shape error, say), not a divergence
        f, w_pt, obj = quadratic_fixture(rng)

        def buggy_step(*args):
            return np.linalg.solve(np.ones((2, 3)), np.ones(2))

        monkeypatch.setattr(solvers_mod, "_rk_step", buggy_step)
        with pytest.raises(np.linalg.LinAlgError):
            run_trajectory(f, obj, SolverConfig(Scheme.ODE_RK4, 0.1, 3))

    @pytest.mark.parametrize(
        "scheme, stages",
        [(Scheme.ODE_RK4, 4), (Scheme.ODE_RK2, 2), (Scheme.ODE_EULER, 1),
         (Scheme.CLASSICAL_GD, 1), (Scheme.RIEMANNIAN, 1), (Scheme.LORA_PRO, 1),
         (Scheme.FULL_FT, 1)],
    )
    def test_logged_gradient_is_the_first_stage_gradient(self, rng, monkeypatch, scheme, stages):
        f, w_pt, obj = quadratic_fixture(rng)
        counting = CountingObjective(obj)
        k = 6
        cfg = SolverConfig(scheme, 0.1, k)
        reused = run_trajectory(f, counting, cfg)
        assert counting.grads == stages * k + 1
        assert len(reused.rows) == k + 1 and not reused.diverged

        # full_ft steps through its public step, every factor scheme through
        # the engine; either takes the start's gradient as its last argument
        name = "full_ft_step" if scheme is Scheme.FULL_FT else "_rk_step"
        real = getattr(solvers_mod, name)
        monkeypatch.setattr(solvers_mod, name, lambda *args: real(*args[:-1], g=None))
        fresh = run_trajectory(f, counting, cfg)
        assert counting.grads == (stages * k + 1) + (stages + 1) * k + 1
        assert row_values(reused) == row_values(fresh)

    def test_diverging_run_is_unchanged_by_gradient_reuse(self, monkeypatch):
        p = make_sensing_instance(40, 40, 40, 4, 0.05, 0)
        obj = sensing_objective(p)
        f0 = perturbed_balanced_init(p, 0.8, 0.05, 0)
        cfg = SolverConfig(Scheme.CLASSICAL_GD, 1.0, 200)
        reused = run_trajectory(f0, obj, cfg)
        real, fresh_steps = solvers_mod._rk_step, []

        def fresh_step(*args):
            fresh_steps.append(1)
            return real(*args[:-1], g=None)

        monkeypatch.setattr(solvers_mod, "_rk_step", fresh_step)
        fresh = run_trajectory(f0, obj, cfg)
        assert len(fresh_steps) == len(fresh.rows) - 1  # every step took no gradient
        assert reused.diverged and fresh.diverged
        assert row_values(reused) == row_values(fresh)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_a_refused_null_space_ratio_is_logged_blank(self, scheme):
        # a regression zero-B start at eps_reg = 0: the kernel refuses B's
        # Gram (and, after a classical_gd step, B's rank-one Gram), so each
        # row's ratio is blank, and the run is the one that logs no ratio
        p = make_regression_instance(12, 10, 0)
        start, obj = aligned_zero_b_init(p, 2, 0), regression_objective(p)
        with pytest.raises(NotPositiveDefinite):
            FactorGrams(start, 0.0)
        config = SolverConfig(scheme, 0.1, 4, eps_reg=0.0)
        logged = run_trajectory(start, obj, config)
        unlogged = run_trajectory(start, obj, config, log_eps_ratio=False)
        assert all(row.eps_ratio is None for row in logged.rows)
        assert logged.diverged == unlogged.diverged
        assert row_values(logged) == row_values(unlogged)
        assert len(logged.rows) == (2 if logged.diverged else 5)

    def test_determinism(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)
        cfg = SolverConfig(Scheme.ODE_RK4, 0.1, 20)
        log1 = run_trajectory(f, obj, cfg)
        log2 = run_trajectory(f, obj, cfg)
        for r1, r2 in zip(log1.rows, log2.rows):
            assert r1.loss == r2.loss and r1.grad_norm == r2.grad_norm
            assert r1.balance_defect == r2.balance_defect
            assert r1.eps_ratio == r2.eps_ratio

    def test_missing_base_weight_is_rejected(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)
        obj.w_pt = None
        for scheme in (Scheme.ODE_RK4, Scheme.FULL_FT):
            with pytest.raises(TypeError):
                run_trajectory(f, obj, SolverConfig(scheme, 0.1, 1))

    def test_stack_objective_without_base_weight_is_rejected_before_any_step(self):
        # a RegressionStack objective holds offsets, not a base weight; a run
        # or an order study on it must say so before it steps or evaluates
        objective, start = _seed_stack(8, [0, 1])
        assert objective.w_pt is None

        def stepped(*args):
            raise AssertionError("the objective was read before the base check")

        objective.sides = objective.evaluate = objective.grad = stepped
        for scheme in (Scheme.ODE_RK4, Scheme.FULL_FT):
            with pytest.raises(TypeError, match="RegressionObjective.*w_pt"):
                run_stack(start, objective, [SolverConfig(scheme, 0.1, 1)] * 2)
        with pytest.raises(TypeError, match="RegressionObjective.*w_pt"):
            estimate_order(start, objective, 1.0, (0.2, 0.1))

    def test_base_weight_keyword_takes_only_the_objectives_own(self):
        # kept for callers that still pass it; an equal copy or any other
        # array would be a base the objective does not hold
        p = make_sensing_instance(8, 8, 8, 2, 0.05, 3)
        obj = sensing_objective(p)
        f0 = perturbed_balanced_init(p, 0.8, 0.05, 3)
        cfg = SolverConfig(Scheme.ODE_RK4, 0.1, 5)
        assert obj.w_pt is p.w_pt
        given = run_trajectory(f0, obj, cfg, w_pt=obj.w_pt)
        assert row_values(given) == row_values(run_trajectory(f0, obj, cfg))
        for other in (obj.w_pt.copy(), obj.w_pt + 1.0, np.zeros((8, 8))):
            with pytest.raises(ValueError, match="base weight"):
                run_trajectory(f0, obj, cfg, w_pt=other)

    def test_dense_start_is_rejected(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)
        for scheme in (Scheme.ODE_RK4, Scheme.FULL_FT):
            with pytest.raises(TypeError, match="LoRAFactors"):
                run_trajectory(effective_weight(w_pt, f), obj, SolverConfig(scheme, 0.1, 1))

    def test_full_ft_steps_the_effective_weight_of_the_start(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)
        h, k = 0.1, 5
        log = run_trajectory(f, obj, SolverConfig(Scheme.FULL_FT, h, k))
        assert len(log.rows) == k + 1 and not log.diverged
        w = effective_weight(w_pt, f)
        for i, row in enumerate(log.rows):
            assert row.iter == i
            assert row.loss == float(obj.loss(w))
            assert row.grad_norm == float(np.linalg.norm(obj.grad(w)))
            assert row.dist_to_opt == float(np.linalg.norm(w - obj.optimum_w))
            assert row.balance_defect is None and row.eps_ratio is None
            w = full_ft_step(w, obj, h)

    def test_rate_matches_theory_on_quadratic_full_ft(self, rng):
        w_star = rng.standard_normal((4, 5))
        w0 = w_star + rng.standard_normal((4, 5))
        obj = quadratic_objective(w_star, mu=1.0, w_pt=w0)
        # B = 0, so the start's effective weight is w0 itself
        start = zero_b_init(5, 4, 1, 0)
        log = run_trajectory(start, obj, SolverConfig(Scheme.FULL_FT, 0.1, 40))
        losses = log.losses()
        # gap contracts by (1 - h)^2 per step in loss for the quadratic
        ratios = losses[1:] / losses[:-1]
        assert np.allclose(ratios, 0.81, atol=1e-8)


def test_every_step_takes_one_signature_and_nothing_takes_a_base_weight():
    # the objective holds the frozen base weight, so no step or run reads one
    for name in solvers_mod.__all__:
        if name.endswith("_step"):
            params = list(inspect.signature(getattr(solvers_mod, name)).parameters)
            assert params[1:] == ["objective", "h", "eps", "g"], name
    for fn in (solvers_mod.run_stack, estimate_order, _integrate_weight, Objective.sides,
               Objective.evaluate):
        assert "w_pt" not in inspect.signature(fn).parameters, fn.__name__

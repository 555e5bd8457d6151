import dataclasses
import inspect
import tracemalloc

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
)
from odelora.diagnostics import _integrate_weight, _seed_stack, estimate_order, phi_decompose
from odelora.linalg import NonFiniteState, NotPositiveDefinite
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
    TrajectoryRow,
    _lorapro_direction,
    run_stack,
    run_trajectory,
    step,
)
from oracles import (DenseObjective, dense_field, flow_rhs_full, gradient_sides,
                     longdouble_distance)

class ConstantGradient(DenseObjective):
    """Linear objective: loss = <G0, W>, gradient identically G0."""

    def __init__(self, g0, w_pt):
        self.g0 = np.asarray(g0, dtype=np.float64)
        self.w_pt = w_pt

    def loss(self, w):
        return float(np.sum(self.g0 * w))

    def grad(self, w):
        return self.g0


class CountingObjective(DenseObjective):
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


class NaNSides(Objective):
    """Another objective with a NaN in its gradient's side ``B^T G``, from both
    ``sides`` and the logged row's ``evaluate``; its loss and G stay finite."""

    def __init__(self, inner):
        self.inner, self.w_pt = inner, inner.w_pt

    @staticmethod
    def _poisoned(sides):
        bt_g = sides.bt_g.copy()
        bt_g[..., 0, 0] = np.nan
        return sides._replace(bt_g=bt_g)

    def sides(self, factors):
        return self._poisoned(self.inner.sides(factors))

    def evaluate(self, factors):
        state = self.inner.evaluate(factors)
        return state._replace(sides=self._poisoned(state.sides))


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
        out = step(scheme, state, obj, 0.25, 1e-8)
        if scheme is Scheme.FULL_FT:
            assert np.array_equal(out, w)
        else:
            assert np.array_equal(out.a, f.a) and np.array_equal(out.b, f.b)


class TestOdeEuler:
    def test_scalar_derivation(self):
        f = LoRAFactors(a=[[1.0]], b=[[1.0]])
        g = 0.8
        out = step(Scheme.ODE_EULER, f, ConstantGradient([[g]], np.zeros((1, 1))), 0.1, eps=0.0)
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
                state = step(Scheme.ODE_EULER, state, obj, h, 1e-8)
            ref = f0
            h_ref = h / 64
            for _ in range(round(horizon / h_ref)):
                ref = step(Scheme.ODE_RK4, ref, obj, h_ref, 1e-8)
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
            return dense_field(state, obj.grad(effective_weight(w_pt, state)), 0.0)

        k1 = field_at(f)
        nudged = f.move(k1.f_a, k1.f_b, tau)
        k_tau = field_at(nudged)
        dfa = (k_tau.f_a - k1.f_a) / tau
        dfb = (k_tau.f_b - k1.f_b) / tau
        taylor_a = f.a + h * k1.f_a + 0.5 * h**2 * dfa
        taylor_b = f.b + h * k1.f_b + 0.5 * h**2 * dfb
        out = step(Scheme.ODE_RK2, f, obj, h, eps=0.0)
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
            ref = step(Scheme.ODE_RK4, ref, obj, h_ref, 1e-8)
        w_ref = effective_weight(p.w_pt, ref)

        def defect(h):
            state = f0
            for _ in range(round(horizon / h)):
                state = step(Scheme.ODE_RK2, state, obj, h, 1e-8)
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
        monkeypatch.setattr(solvers_mod, "field_eval", lambda *a, **k: frozen)
        out = step(Scheme.ODE_RK4, f, obj, 0.3, 1e-8)
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
            ref = step(Scheme.ODE_RK4, ref, obj, h_ref, 1e-8)
        w_ref = effective_weight(p.w_pt, ref)

        def defect(h):
            state = f0
            for _ in range(round(horizon / h)):
                state = step(Scheme.ODE_RK4, state, obj, h, 1e-8)
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
        out = step(Scheme.CLASSICAL_GD, f, obj, 0.2)
        assert np.array_equal(out.a, f.a)
        assert np.allclose(out.b, -0.2 * g @ a.T, atol=1e-14)

    def test_factor_gradients_match_finite_differences(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)
        h = 0.05
        out = step(Scheme.CLASSICAL_GD, f, obj, h)
        da = (out.a - f.a) / -h  # implemented gradient w.r.t. A
        db = (out.b - f.b) / -h
        tau = 1e-6

        def loss_of(a, b):
            return obj.loss(w_pt + b @ a)

        for _ in range(10):
            d = rng.standard_normal(f.a.shape)
            d /= np.linalg.norm(d)
            fd = (loss_of(f.a + tau * d, f.b) - loss_of(f.a - tau * d, f.b)) / (2 * tau)
            assert abs(fd - np.sum(da * d)) <= 1e-6 * max(1.0, abs(fd))
            e = rng.standard_normal(f.b.shape)
            e /= np.linalg.norm(e)
            fd_b = (loss_of(f.a, f.b + tau * e) - loss_of(f.a, f.b - tau * e)) / (2 * tau)
            assert abs(fd_b - np.sum(db * e)) <= 1e-6 * max(1.0, abs(fd_b))


class TestRiemannian:
    def test_orthonormal_factors_reduce_to_classical(self, rng):
        qa, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        qb, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        f = LoRAFactors(a=qa[:, :2].T, b=qb[:, :2])
        w_pt = rng.standard_normal((5, 6))
        obj = quadratic_objective(rng.standard_normal((5, 6)), mu=1.0, w_pt=w_pt)
        out_r = step(Scheme.RIEMANNIAN, f, obj, 0.1, eps=0.0)
        out_c = step(Scheme.CLASSICAL_GD, f, obj, 0.1)
        assert np.allclose(out_r.a, out_c.a, atol=1e-12)
        assert np.allclose(out_r.b, out_c.b, atol=1e-12)

    def test_preconditioned_directions(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)
        g = obj.grad(effective_weight(w_pt, f))
        out = step(Scheme.RIEMANNIAN, f, obj, 0.1, eps=0.0)
        da = np.linalg.solve(f.b.T @ f.b, f.b.T @ g)
        db = (g @ f.a.T) @ np.linalg.inv(f.a @ f.a.T)
        assert np.linalg.norm(out.a - (f.a - 0.1 * da)) <= 1e-10
        assert np.linalg.norm(out.b - (f.b - 0.1 * db)) <= 1e-10


class TestLoraPro:
    def test_effective_direction_matches_projected_flow(self, rng):
        f, w_pt, obj = quadratic_fixture(rng)
        g = obj.grad(effective_weight(w_pt, f))
        da, db = _lorapro_direction(f, gradient_sides(f, g), FactorGrams(f, 0.0))
        assert np.linalg.norm(
            f.b @ da + db @ f.a - flow_rhs_full(f, g)
        ) <= 1e-10 * np.linalg.norm(g)

    def test_differs_from_flow_step_by_gauge(self, rng):
        p = make_sensing_instance(6, 7, 7, 2, 0.0, 5)
        obj = sensing_objective(p)
        f = balanced_init(0.7 * p.b_star @ p.a_star, 2)
        g = obj.grad(effective_weight(p.w_pt, f))
        h = 0.1
        fe = dense_field(f, g, 0.0)
        pro = step(Scheme.LORA_PRO, f, obj, h, eps=0.0)
        euler = step(Scheme.ODE_EULER, f, obj, h, eps=0.0)
        assert np.allclose(euler.a - pro.a, h * fe.x @ f.a, atol=1e-10)
        assert np.allclose(euler.b - pro.b, -h * f.b @ fe.x, atol=1e-10)

    def test_effective_dynamic_coincidence_is_second_order(self, rng):
        # lora_pro, the zero-gauge member, has the flow's weight velocity, so
        # its one-step B A gap to the Euler flow step is O(h^2); riemannian's
        # weight velocity differs, so its gap is O(h)
        f, w_pt, obj = quadratic_fixture(rng)

        def gap(scheme, h):
            other = step(scheme, f, obj, h, eps=0.0)
            euler = step(Scheme.ODE_EULER, f, obj, h, eps=0.0)
            return np.linalg.norm(other.delta() - euler.delta())

        ratio = gap(Scheme.LORA_PRO, 0.1) / gap(Scheme.LORA_PRO, 0.05)
        assert 3.4 <= ratio <= 4.6
        ratio = gap(Scheme.RIEMANNIAN, 0.1) / gap(Scheme.RIEMANNIAN, 0.05)
        assert 1.7 <= ratio <= 2.3


class TestFullFineTune:
    def test_quadratic_contraction(self, rng):
        w_star = rng.standard_normal((4, 5))
        obj = quadratic_objective(w_star, mu=1.0, w_pt=np.zeros((4, 5)))
        w = rng.standard_normal((4, 5))
        for h in (0.3, 0.9, 1.5):
            w_next = step(Scheme.FULL_FT, w, obj, h)
            assert np.linalg.norm(w_next - w_star) == pytest.approx(
                abs(1.0 - h) * np.linalg.norm(w - w_star), rel=1e-12
            )

    def test_strict_descent_at_smoothness_step(self):
        p = make_sensing_instance(10, 10, 10, 2, 0.1, 7)
        obj = sensing_objective(p)
        h = 1.0 / (1.0 + p.delta)
        w = p.w_pt + 0.3 * p.b_star @ p.a_star
        for _ in range(50):
            w_next = step(Scheme.FULL_FT, w, obj, h)
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

        def defect_after(scheme, h, steps):
            state = f0
            for _ in range(steps):
                state = step(scheme, state, obj, h, 1e-8)
            return balance_defect(state)

        cases = (
            (Scheme.ODE_EULER, 1, 1),
            (Scheme.ODE_RK2, 2, 10),
            (Scheme.ODE_RK4, 4, 1),
        )
        for scheme, order, steps in cases:
            ratio = defect_after(scheme, 0.1, steps) / defect_after(scheme, 0.05, steps)
            lo, hi = 2 ** (order + 1) * 0.7, 2 ** (order + 1) * 1.4
            assert lo <= ratio <= hi, (scheme.value, ratio)


def test_solver_config_rejects_non_finite_step_and_eps():
    good = SolverConfig(Scheme.ODE_RK4, 0.1, 1)
    for field in ("step_size", "eps_reg"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                dataclasses.replace(good, **{field: bad})


@pytest.mark.parametrize("schemes", [(Scheme.ODE_EULER, Scheme.ODE_RK4),
                                     (Scheme.CLASSICAL_GD, Scheme.RIEMANNIAN)])
def test_plan_refuses_schemes_out_of_stack_order(schemes):
    # the plan's prefix layout holds only in stack order; out of it a slice
    # would take another slice's stages, with no error
    with pytest.raises(ValueError, match=", ".join(scheme.value for scheme in schemes)):
        solvers_mod._plan(schemes)
    ordered = tuple(sorted(schemes, key=list(solvers_mod._METHODS).index))
    assert solvers_mod._plan(ordered) is solvers_mod._plan(ordered)  # built once per tuple


@pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf")])
def test_eps_is_refused_where_it_is_passed(eps):
    # a negative or non-finite eps is the caller's error: ValueError before
    # any factorization, never one of DIVERGENCE_ERRORS
    problem = make_regression_instance(8, 8, 0)
    objective = regression_objective(problem)
    start = aligned_zero_b_init(problem.s, 8, 2, 0)
    w = effective_weight(problem.w_pt, start)
    calls = [lambda eps, scheme=scheme: step(scheme, w if scheme is Scheme.FULL_FT else start,
                                             objective, 0.1, eps)
             for scheme in Scheme]
    calls += [lambda eps: estimate_order(start, objective, 0.2, (0.1, 0.05), eps),
              lambda eps: phi_decompose(start, objective, Scheme.ODE_RK4, 0.1, eps),
              lambda eps: SolverConfig(Scheme.ODE_RK4, 0.1, 1, eps)]
    for call in calls:
        with pytest.raises(ValueError, match="must be nonnegative and finite") as info:
            call(eps)
        assert not isinstance(info.value, solvers_mod.DIVERGENCE_ERRORS)


def test_scheme_and_step_size_are_refused_where_they_are_passed():
    # a scheme that is not a Scheme, a step size that is not positive and
    # finite (a float, or one slice of a (k, 1, 1) array) and a full_ft
    # decomposition are the caller's errors, never one of DIVERGENCE_ERRORS
    problem = make_regression_instance(8, 8, 0)
    objective = regression_objective(problem)
    start = aligned_zero_b_init(problem.s, 8, 2, 0)
    w = effective_weight(problem.w_pt, start)
    stack = LoRAFactors(np.stack([start.a] * 2), np.stack([start.b] * 2))
    with pytest.raises(TypeError, match="Scheme"):
        step("ode_rk4", start, objective, 0.1)
    with pytest.raises(TypeError, match="Scheme"):
        phi_decompose(start, objective, "ode_rk4", 0.1)
    calls = [lambda h, scheme=scheme: step(scheme, w if scheme is Scheme.FULL_FT else start,
                                           objective, h)
             for scheme in Scheme]
    calls.append(lambda h: phi_decompose(start, objective, Scheme.ODE_RK4, h))
    for h in (-0.1, 0.0, float("nan"), float("inf")):
        for call in calls:
            with pytest.raises(ValueError, match="must be positive and finite") as info:
                call(h)
            assert not isinstance(info.value, solvers_mod.DIVERGENCE_ERRORS)
    with pytest.raises(ValueError, match="must be positive and finite"):
        step(Scheme.ODE_RK4, stack, objective, np.array([0.1, -0.1])[:, None, None])
    with pytest.raises(ValueError, match="full_ft"):
        phi_decompose(start, objective, Scheme.FULL_FT, 0.1)


def test_bad_settings_are_refused_at_construction():
    # each is a caller's error, refused before a run could fail on it deep
    # inside (a float count in range(), a str scheme in the stack order, a
    # nan mu as a non-finite G)
    with pytest.raises(TypeError):
        SolverConfig(Scheme.ODE_RK4, 0.1, 2.5)
    with pytest.raises(TypeError, match="Scheme"):
        SolverConfig("ode_rk4", 0.1, 3)
    assert SolverConfig(Scheme.ODE_RK4, 0.1, np.int64(3)).iterations == 3
    for mu in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="^mu must be positive"):
            quadratic_objective(np.zeros((2, 3)), mu=mu, w_pt=np.zeros((2, 3)))


@pytest.mark.parametrize("kind", ["sensing", "regression", "quadratic"])
def test_full_ft_steps_a_stack_in_one_grad_call(kind, monkeypatch):
    # without g, a stacked full_ft step reads the gradient of the whole
    # (k, m, n) stack in one call, and each slice gets its step alone
    rng = np.random.default_rng(5)
    if kind == "sensing":
        obj = sensing_objective(make_sensing_instance(6, 7, 7, 2, 0.05, 1))
    elif kind == "regression":
        obj = regression_objective(make_regression_instance(7, 6, 1))
    else:
        obj = quadratic_objective(rng.standard_normal((6, 7)), 2.0, rng.standard_normal((6, 7)))
    w = obj.w_pt + rng.standard_normal((3, 6, 7))
    hs = np.array([0.05, 0.5, 2.2])
    alone = [step(Scheme.FULL_FT, w[j], obj, h) for j, h in enumerate(hs)]
    shapes, grad = [], obj.grad
    monkeypatch.setattr(obj, "grad", lambda x: shapes.append(np.shape(x)) or grad(x))
    after = step(Scheme.FULL_FT, w, obj, hs[:, None, None])
    assert shapes == [(3, 6, 7)]
    for j in range(3):
        assert after[j].tobytes() == alone[j].tobytes()


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

    @pytest.mark.parametrize("scheme", [s for s in Scheme if s is not Scheme.FULL_FT])
    def test_a_non_finite_side_halts_at_the_next_state(self, rng, scheme):
        # the kernel does not check the sides an objective hands it (see the
        # linalg docstring): a NaN side gives a NaN direction, which the next
        # state's LoRAFactors refuses. Both sources carry the NaN, since a
        # logged run's one-stage steps read only the row's sides.
        f, w_pt, obj = quadratic_fixture(rng)
        obj = NaNSides(obj)
        with pytest.raises(NonFiniteState):
            step(scheme, f, obj, 0.1, 1e-8)
        log = run_trajectory(f, obj, SolverConfig(scheme, 0.1, 5))
        assert log.diverged and [row.iter for row in log.rows] == [0, 1]
        assert np.isfinite(log.rows[0].loss)
        assert np.isnan(log.rows[-1].loss) and np.isnan(log.rows[-1].grad_norm)

    @pytest.mark.parametrize("scheme", Scheme)
    def test_an_overflowing_quadratic_gradient_is_data(self, rng, scheme):
        # at mu = 1e308 the start's mu (W - W*) overflows: the objective does
        # not check its G, so row 0 logs the infinite loss and halts the run
        w_pt = rng.standard_normal((6, 7))
        w_star = w_pt + 5.0 * rng.standard_normal((6, 7))
        obj = quadratic_objective(w_star, mu=1e308, w_pt=w_pt)
        log = run_trajectory(balanced_init(w_star - w_pt, 2), obj, SolverConfig(scheme, 0.1, 5))
        assert log.diverged and [row.iter for row in log.rows] == [0]
        assert log.rows[0].loss == np.inf

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

        # full_ft steps through the public step, every factor scheme through
        # the engine; either takes the start's gradient as its last argument
        name = "step" if scheme is Scheme.FULL_FT else "_rk_step"
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
        start, obj = aligned_zero_b_init(p.s, 10, 2, 0), regression_objective(p)
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
            w = step(Scheme.FULL_FT, w, obj, h)

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


class TestLoggedRow:
    def test_sensing_distance_matches_a_longdouble_oracle(self):
        # one stack of states far from the optimum, 1e-8 from it, and on it
        # up to a gauge; each row's factor-form distance against the dense
        # difference in extended precision
        p = make_sensing_instance(30, 24, 24, 3, 0.05, 5)
        obj = sensing_objective(p)
        rng = np.random.default_rng(5)
        gauge = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        states = [
            (rng.standard_normal((3, 24)), rng.standard_normal((30, 3))),
            (100.0 * rng.standard_normal((3, 24)), rng.standard_normal((30, 3))),
            (p.a_star + 1e-8 * rng.standard_normal((3, 24)),
             p.b_star + 1e-8 * rng.standard_normal((30, 3))),
            (np.linalg.solve(gauge, p.a_star) + 1e-8 * rng.standard_normal((3, 24)),
             p.b_star @ gauge),
            (np.linalg.solve(gauge, p.a_star), p.b_star @ gauge),
            (p.a_star, p.b_star),
        ]
        stack = LoRAFactors(np.array([a for a, _ in states]), np.array([b for _, b in states]))
        logs = run_stack(stack, obj, [SolverConfig(Scheme.ODE_RK4, 0.1, 0)] * len(states))
        want = longdouble_distance(stack, p.b_star, p.a_star)
        truth = np.linalg.norm(p.b_star @ p.a_star)
        for j, log in enumerate(logs):
            f = stack.take(j)
            [row] = log.rows
            bound = 1e-13 * (np.linalg.norm(f.b @ f.a) + truth)
            assert abs(row.dist_to_opt - want[j]) <= bound, (j, row.dist_to_opt, want[j])

    def test_a_weight_that_overflows_halts_on_its_first_row(self):
        # finite factors whose B A overflows: that slice's W is formed and
        # found non-finite, so it halts on row 0 with the nan row, and the
        # other slice logs what its run alone logs
        p = make_sensing_instance(8, 8, 8, 2, 0.05, 0)
        obj = sensing_objective(p)
        good = perturbed_balanced_init(p, 0.8, 0.05, 0)
        big = LoRAFactors(np.full((2, 8), 1e160), np.full((8, 2), 1e160))
        stack = LoRAFactors(np.array([good.a, big.a]), np.array([good.b, big.b]))
        cfg = SolverConfig(Scheme.ODE_RK4, 0.1, 3)
        logs = run_stack(stack, obj, [cfg, cfg])
        nan = float("nan")
        assert row_values(logs[1]) == repr([TrajectoryRow(0, nan, nan, None, None, None, 0)])
        assert logs[1].diverged and not logs[0].diverged
        assert row_values(logs[0]) == row_values(run_trajectory(good, obj, cfg))
        assert row_values(run_trajectory(big, obj, cfg)) == row_values(logs[1])

    def test_a_slice_over_the_bound_with_a_finite_weight_logs_its_row(self):
        # r max|B| max|A| is over the bound, but B A cancels to 0 exactly
        # (c^2 = 2^1022 is exact): the row forms that W, finds it finite and
        # logs the values at W = W_pt
        rng = np.random.default_rng(3)
        w_pt = rng.standard_normal((6, 7))
        obj = quadratic_objective(rng.standard_normal((6, 7)), 1.0, w_pt)
        c = 2.0 ** 511
        f = LoRAFactors(np.full((2, 7), c), np.tile([c, -c], (6, 1)))
        assert 2 * c * c >= solvers_mod._FINITE_BOUND and not (f.b @ f.a).any()
        [row] = run_trajectory(f, obj, SolverConfig(Scheme.ODE_RK4, 0.1, 0)).rows
        assert row.loss == float(obj.loss(w_pt))
        assert row.grad_norm == float(np.linalg.norm(obj.grad(w_pt)))
        assert row.dist_to_opt == float(np.linalg.norm(w_pt - obj.w_star))

    def test_a_sensing_distance_over_the_factor_form_is_taken_dense(self):
        # B A cancels to 0 exactly, but the factor form's P A and
        # B_perp^T B_perp overflow: that slice logs the dense ||W_pt - W*||,
        # and the other slice of the stack keeps the bits of its run alone
        p = make_sensing_instance(6, 7, 7, 2, 0.05, 0)
        obj = sensing_objective(p)
        good = perturbed_balanced_init(p, 0.8, 0.05, 0)
        c = 2.0 ** 511
        big = LoRAFactors(np.full((2, 7), c), np.tile([c, -c], (6, 1)))
        with np.errstate(over="ignore"):
            assert not (big.b @ big.a).any() and np.isinf(big.b.T @ big.b).all()
        stack = LoRAFactors(np.array([good.a, big.a]), np.array([good.b, big.b]))
        cfg = SolverConfig(Scheme.ODE_RK4, 0.1, 0)
        logs = run_stack(stack, obj, [cfg, cfg])
        dist = logs[1].rows[0].dist_to_opt
        assert dist == float(np.linalg.norm(p.w_pt - (p.w_pt + p.b_star @ p.a_star)))
        assert abs(dist - 1.9217748429130395) <= 1e-12 * 1.9217748429130395
        assert row_values(logs[0]) == row_values(run_trajectory(good, obj, cfg))

    def test_a_factor_run_on_sensing_forms_no_optimum_weight(self):
        # W* is m x n; only full_ft rows and the dense fallback read it
        p = make_sensing_instance(8, 8, 8, 2, 0.05, 0)
        obj = sensing_objective(p)
        log = run_trajectory(perturbed_balanced_init(p, 0.8, 0.05, 0), obj,
                             SolverConfig(Scheme.ODE_RK4, 0.1, 3))
        assert log.rows[-1].dist_to_opt is not None and "optimum_w" not in obj.__dict__
        assert np.array_equal(obj.optimum_w, p.w_pt + p.b_star @ p.a_star)

    def test_a_regression_row_forms_no_dense_array_but_g(self):
        # the row's only m x n array is the objective's G: no W for the
        # finiteness check, none for a distance, no G * G for the ratio
        m, n = 300, 400
        obj = regression_objective(make_regression_instance(n, m, 0))
        start = LoRAFactors(np.random.default_rng(0).standard_normal((2, n)) / np.sqrt(n),
                            np.random.default_rng(1).standard_normal((m, 2)))
        cfg = SolverConfig(Scheme.ODE_RK4, 0.1, 0)
        run_trajectory(start, obj, cfg)  # C0 is built on first use
        tracemalloc.start()
        try:
            log = run_trajectory(start, obj, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.rows[0].eps_ratio is not None and log.rows[0].dist_to_opt is None
        assert peak < 1.5 * m * n * 8, peak

    def test_zero_ratio_exactly_where_the_gradient_norm_is_at_most_1e_14(self):
        # gradients within a few ulps of norm 1e-14, where a second way of
        # summing ||G||^2 can fall on the other side of the threshold
        rng = np.random.default_rng(0)
        f = LoRAFactors(rng.standard_normal((2, 7)), rng.standard_normal((6, 2)))
        zeros = 0
        for _ in range(40):
            g0 = rng.standard_normal((6, 7))
            g0 *= 1e-14 / np.sqrt(np.vdot(g0, g0))
            for k in (-1, 0, 1):
                obj = ConstantGradient(g0 * (1 + k * 2.2e-16), np.zeros((6, 7)))
                [row] = run_trajectory(f, obj, SolverConfig(Scheme.ODE_RK4, 0.1, 0)).rows
                assert (row.eps_ratio == 0.0) == (row.grad_norm <= 1e-14), row
                zeros += row.eps_ratio == 0.0
        assert 0 < zeros < 120


def test_every_step_takes_one_signature_and_nothing_takes_a_base_weight():
    # the objective holds the frozen base weight, so no step or run reads one
    assert [name for name in solvers_mod.__all__ if "step" in name] == ["step"]
    params = list(inspect.signature(step).parameters)
    assert params == ["scheme", "state", "objective", "h", "eps", "g"]
    for fn in (solvers_mod.run_stack, estimate_order, _integrate_weight, Objective.sides,
               Objective.evaluate):
        assert "w_pt" not in inspect.signature(fn).parameters, fn.__name__

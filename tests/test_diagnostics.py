import numpy as np
import pytest

from conftest import random_factors
from odelora.cli import Experiment
from odelora.config import parse_config
from odelora.core import LoRAFactors, effective_weight
from odelora.diagnostics import (
    DefectBelowNoiseFloor,
    ReferenceDiverged,
    ScalingDiverged,
    estimate_order,
    feature_scaling_experiment,
    phi_decompose,
)
from odelora.metrics import (
    WindowTooShort,
    ZeroGradient,
    balance_defect,
    eps_ratio,
    rate_fit,
)
from odelora.problems import (
    RegressionProblem,
    balanced_init,
    make_regression_instance,
    make_sensing_instance,
    perturbed_balanced_init,
    quadratic_objective,
    regression_objective,
    sensing_objective,
    zero_b_init,
)
from odelora.linalg import NonFiniteState
from odelora.solvers import DIVERGENCE_ERRORS, Scheme, step
from oracles import null_projector_a, null_projector_b, weight_flow


class TestEpsRatio:
    def test_in_factor_span_gives_zero(self, rng):
        f = random_factors(rng, 3, 6, 7)
        g = f.b @ rng.standard_normal((3, 3)) @ f.a
        assert abs(eps_ratio(f, g)) <= 1e-12

    def test_square_invertible_factors_give_zero(self, rng):
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        f = LoRAFactors(a=a, b=b)
        assert abs(eps_ratio(f, rng.standard_normal((3, 3)))) <= 1e-12

    def test_matches_projector_norm_oracle(self, rng):
        for _ in range(20):
            f = random_factors(rng, 2, 5, 6)
            g = rng.standard_normal((5, 6))
            expected = (
                np.linalg.norm(null_projector_b(f) @ g @ null_projector_a(f)) ** 2
                / np.linalg.norm(g) ** 2
            )
            assert eps_ratio(f, g) == pytest.approx(expected, abs=1e-12)

    def test_range(self, rng):
        for _ in range(200):
            f = random_factors(rng, int(rng.integers(1, 4)), 6, 7)
            ratio = eps_ratio(f, rng.standard_normal((6, 7)))
            assert -1e-12 <= ratio <= 1.0 + 1e-12

    def test_zero_gradient_raises(self, rng):
        f = random_factors(rng, 2, 4, 5)
        with pytest.raises(ZeroGradient):
            eps_ratio(f, np.zeros((4, 5)))


class TestBalanceDefect:
    def test_scalar_example(self):
        f = LoRAFactors(a=[[2.0]], b=[[1.0]])
        assert balance_defect(f) == pytest.approx(3.0)

    def test_balanced_init_is_on_manifold(self, rng):
        f = balanced_init(rng.standard_normal((6, 2)) @ rng.standard_normal((2, 7)), 2)
        assert balance_defect(f) <= 1e-10

    def test_orthogonal_gauge_invariance(self, rng):
        f = random_factors(rng, 3, 6, 7)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = LoRAFactors(a=q.T @ f.a, b=f.b @ q)
        assert balance_defect(rotated) == pytest.approx(balance_defect(f), rel=1e-10)


class TestRateFit:
    def test_exact_geometric(self):
        losses = 3.0 * 0.9 ** np.arange(60) + 0.5
        fit = rate_fit(losses, 0.5)
        assert fit.contraction == pytest.approx(0.9, abs=1e-10)

    def test_constant_losses(self):
        fit = rate_fit(np.full(40, 2.0), 1.0)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            rate_fit([1.0, 0.9, 0.8], 0.0)


@pytest.fixture(scope="module")
def order_setup():
    p = make_sensing_instance(10, 10, 10, 2, 0.05, 0)
    obj = sensing_objective(p)
    f0 = perturbed_balanced_init(p, 0.8, 0.05, 0)
    return p, obj, f0


class TestEstimateOrder:
    @pytest.fixture
    def setup(self, order_setup):
        return order_setup

    def test_start_at_optimum_is_below_noise_floor(self, rng):
        # the field vanishes at the optimum, so every run stays where it
        # started and each defect sits at round-off
        w_pt = rng.standard_normal((8, 8))
        w_star = w_pt + rng.standard_normal((8, 2)) @ rng.standard_normal((2, 8))
        obj = quadratic_objective(w_star, mu=1.0, w_pt=w_pt)
        f0 = balanced_init(w_star - w_pt, 2)
        with pytest.raises(DefectBelowNoiseFloor):
            estimate_order(f0, obj, 0.2, [0.1, 0.05])

    def test_euler_first_order(self, setup):
        p, obj, f0 = setup
        report = estimate_order(f0, obj, 0.5, [0.1, 0.05, 0.025])[Scheme.ODE_EULER]
        assert 0.7 <= report.observed_order <= 1.3
        assert all(d > 0 for d in report.defects)
        assert list(report.defects) == sorted(report.defects, reverse=True)

    def test_one_reference_serves_every_flow_scheme(self, setup, monkeypatch):
        from odelora import diagnostics

        p, obj, f0 = setup
        calls = []
        real = diagnostics._integrate_weight

        def counting(factors, objective, schemes, h, horizon, eps):
            calls.append((factors.a.shape[:-2], schemes, h))
            return real(factors, objective, schemes, h, horizon, eps)

        monkeypatch.setattr(diagnostics, "_integrate_weight", counting)
        h_list = [0.1, 0.05]
        reports = estimate_order(f0, obj, 0.2, h_list)
        assert list(reports) == [Scheme.ODE_EULER, Scheme.ODE_RK2, Scheme.ODE_RK4]
        # one unstacked RK4 reference, then one stack of the three flows per h
        flows = (Scheme.ODE_RK4, Scheme.ODE_RK2, Scheme.ODE_EULER)
        assert calls == [((), (Scheme.ODE_RK4,), min(h_list) / 100.0)] + [
            ((3,), flows, h) for h in h_list]

    def test_each_stacked_flow_ends_where_its_public_step_does(self, setup):
        # each slice of the flows' stack must end, bit for bit, at the weight
        # its scheme's public step reaches alone, and its defect is measured
        # from that weight
        from odelora.diagnostics import _integrate_weight

        p, obj, f0 = setup
        horizon, h_list = 0.2, [0.1, 0.05]
        reports = estimate_order(f0, obj, horizon, h_list)
        reference = _integrate_weight(f0, obj, (Scheme.ODE_RK4,), min(h_list) / 100.0,
                                      horizon, 1e-8)
        flows = (Scheme.ODE_RK4, Scheme.ODE_RK2, Scheme.ODE_EULER)
        stack = LoRAFactors(np.stack([f0.a] * 3), np.stack([f0.b] * 3))
        for i, h in enumerate(h_list):
            w_end = _integrate_weight(stack, obj, flows, h, horizon, 1e-8)
            for scheme, w in zip(flows, w_end):
                state = f0
                for _ in range(round(horizon / h)):
                    state = step(scheme, state, obj, h, 1e-8)
                alone = effective_weight(p.w_pt, state)
                assert w.tobytes() == alone.tobytes()
                assert reports[scheme].defects[i] == float(np.linalg.norm(alone - reference))

    def test_requires_descending_steps(self, setup):
        p, obj, f0 = setup
        for h_list in ([0.05, 0.1], [0.1, 0.1], [0.1]):
            with pytest.raises(ValueError, match="strictly descending"):
                estimate_order(f0, obj, 0.5, h_list)

    def test_reference_divergence_detected(self, rng):
        # a stiff quadratic pushes the fine RK4 reference out of its
        # stability region when the step list is too coarse
        w_star = np.zeros((3, 3))
        obj = quadratic_objective(w_star, mu=40.0, w_pt=np.zeros((3, 3)))
        f0 = random_factors(rng, 2, 3, 3)
        with pytest.raises(ReferenceDiverged):
            estimate_order(f0, obj, 50.0, [50.0, 25.0])

    def test_blown_up_reference_is_refused(self, rng):
        # at h = 0.02, h mu = 8 is past RK4's stability limit of 2.785: the
        # reference raises nothing but ends at a loss of about 1e129, which
        # no defect can be measured against
        obj = quadratic_objective(np.zeros((3, 3)), mu=400.0, w_pt=np.zeros((3, 3)))
        f0 = random_factors(rng, 2, 3, 3)
        with pytest.raises(ReferenceDiverged, match="reference loss"):
            estimate_order(f0, obj, 4.0, (4.0, 2.0))

    @pytest.mark.parametrize("horizon, h_list, bad", [
        (1.0, (0.3, 0.15, 0.07), 0.3),  # 1 / 0.3 steps round to 3, ending at t = 0.9
        (1.0, (0.2, 0.1, 0.07), 0.07),
        (1.0, (2.0, 1.0), 2.0),  # past the horizon
        (np.inf, (0.2, 0.1), 0.2),
    ])
    def test_step_that_does_not_divide_the_horizon_is_refused(self, setup, monkeypatch,
                                                              horizon, h_list, bad):
        # such an h would end at another time than the reference, and the
        # order read off its defect would be silently wrong
        from odelora import diagnostics

        p, obj, f0 = setup

        def never(*args):
            raise AssertionError("a run was made")

        monkeypatch.setattr(diagnostics, "_integrate_weight", never)
        with pytest.raises(ValueError, match=rf"h = {bad} does not divide the horizon {horizon}"):
            estimate_order(f0, obj, horizon, h_list)


class TestPhiDecomposition:
    def test_zero_gradient_gives_zero_components(self, rng):
        n, m = 8, 6
        w_pt = rng.standard_normal((m, n))
        s = rng.standard_normal(n)
        s /= np.linalg.norm(s)
        problem = RegressionProblem(s=s, y=w_pt @ s, w_pt=w_pt)  # zero residual
        f = LoRAFactors(a=rng.standard_normal((2, n)) * 0.0, b=np.zeros((m, 2)))
        report, _ = phi_decompose(f, regression_objective(problem), Scheme.ODE_RK4, 0.1)
        assert all(c <= 1e-14 for c in report.component_norms)

    def test_zero_b_start_structure(self):
        problem = make_regression_instance(12, 12, 0)
        f = zero_b_init(12, 12, 3, np.random.SeedSequence([0, 1]), align=problem.s)
        report, _ = phi_decompose(f, regression_objective(problem), Scheme.ODE_RK4, 0.1)
        # carry-side components multiply B_t = 0, so they vanish at step 0;
        # update-side components at stages past the first are nonzero
        carry = report.component_norms[1::2]
        update = report.component_norms[0::2]
        assert all(c <= 1e-14 for c in carry)
        assert all(u > 1e-8 for u in update)

    def test_sum_identity(self, rng):
        problem = make_regression_instance(10, 9, 1)
        f = LoRAFactors(a=rng.standard_normal((3, 10)), b=rng.standard_normal((9, 3)))
        for h in (0.05, 0.3):
            report, _ = phi_decompose(f, regression_objective(problem), Scheme.ODE_RK4, h)
            assert report.sum_check_residual <= 1e-10

    def test_rejects_an_objective_that_is_not_a_regression(self, rng):
        # a square sensing objective has no feature s; one of 8 x 8 would
        # otherwise read its (8,)-array of something else as components
        f = random_factors(rng, 2, 8, 8)
        sensing = sensing_objective(make_sensing_instance(8, 8, 8, 2, 0.1, 0))
        quadratic = quadratic_objective(np.zeros((8, 8)), mu=1.0, w_pt=np.zeros((8, 8)))
        for objective, name in ((sensing, "SensingObjective"),
                                (quadratic, "QuadraticObjective")):
            with pytest.raises(TypeError, match=name):
                phi_decompose(f, objective, Scheme.ODE_RK4, 0.1)

    def test_classical_two_components(self, rng):
        problem = make_regression_instance(10, 9, 1)
        f = LoRAFactors(a=rng.standard_normal((3, 10)), b=rng.standard_normal((9, 3)))
        report, _ = phi_decompose(f, regression_objective(problem), Scheme.CLASSICAL_GD, 0.1)
        assert len(report.component_norms) == 2
        assert report.sum_check_residual <= 1e-10


class TestTrajectoryDefectContrast:
    def test_plain_descent_drifts_while_rk4_stays(self):
        from odelora.solvers import SolverConfig, run_trajectory

        p = make_sensing_instance(40, 40, 40, 4, 0.05, 0)
        obj = sensing_objective(p)
        f0 = perturbed_balanced_init(p, 0.8, 0.05, 0)
        rk4 = run_trajectory(f0, obj, SolverConfig(Scheme.ODE_RK4, 0.1, 200))
        gd = run_trajectory(f0, obj, SolverConfig(Scheme.CLASSICAL_GD, 0.1, 200))
        assert rk4.rows[-1].balance_defect <= 1e-6
        assert gd.rows[-1].balance_defect > 10 * rk4.rows[-1].balance_defect


class TestOrderSeedConsistency:
    def test_euler_order_stable_across_seeds(self):
        # strongly convex quadratic: the induced weight flow is linear, so
        # the measured order should not wander with the instance seed
        orders = []
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            w_pt = rng.standard_normal((8, 8))
            w_star = w_pt + rng.standard_normal((8, 2)) @ rng.standard_normal((2, 8))
            obj = quadratic_objective(w_star, mu=1.0, w_pt=w_pt)
            f0 = balanced_init(0.6 * (w_star - w_pt), 2)
            reports = estimate_order(f0, obj, 0.5, [0.1, 0.05, 0.025])
            orders.append(reports[Scheme.ODE_EULER].observed_order)
        assert all(0.7 <= o <= 1.3 for o in orders)
        assert abs(orders[0] - orders[1]) <= 0.3


class TestWeightFlowOracle:
    # At eps = 0 each flow stepper's W_pt + B A must converge, at its order,
    # to the dense weight flow, which shares no Gram, gauge, tableau or
    # engine code with the library: the order studies measure the engine
    # against itself, so a field that is wrong in a consistent way passes
    # them and fails this.
    @pytest.mark.parametrize("config",
                             ["", "[problem]\nkind = quadratic\nm = 10\nn = 10\nr = 2\n"],
                             ids=["default", "quadratic"])
    def test_each_flow_meets_the_dense_weight_flow_at_its_order(self, config):
        experiment = Experiment(parse_config(config))
        obj, f0 = experiment.objective, experiment.factors
        want = weight_flow(obj, f0.b @ f0.a, f0.rank, 1.0, 0.0025)
        windows = {Scheme.ODE_EULER: (0.7, 1.3), Scheme.ODE_RK2: (1.7, 2.3),
                   Scheme.ODE_RK4: (3.5, 4.5)}  # criterion 04's
        for scheme, (low, high) in windows.items():
            gaps = []
            for h in (0.2, 0.1, 0.05, 0.025):
                state = f0
                for _ in range(round(1.0 / h)):
                    state = step(scheme, state, obj, h, 0.0)
                gaps.append(np.linalg.norm(effective_weight(obj.w_pt, state) - want))
            orders = np.log2(np.divide(gaps[:-1], gaps[1:]))
            assert ((low <= orders) & (orders <= high)).all(), (scheme, gaps, orders)


class TestPhiIdentityAlongTrajectory:
    def test_sum_identity_every_step(self):
        problem = make_regression_instance(24, 24, 3)
        objective = regression_objective(problem)
        state = zero_b_init(24, 24, 4, np.random.SeedSequence([3, 1]), align=problem.s)
        for _ in range(10):
            report, state = phi_decompose(state, objective, Scheme.ODE_RK4, 0.1, 1e-8)
            assert report.sum_check_residual <= 1e-10

    def test_post_step_state_is_the_solver_step(self):
        # the decomposition takes the solver's own step
        problem = make_regression_instance(24, 24, 3)
        objective = regression_objective(problem)
        start = zero_b_init(24, 24, 4, np.random.SeedSequence([3, 1]), align=problem.s)
        for scheme in (Scheme.ODE_RK4, Scheme.CLASSICAL_GD):
            state = start
            for _ in range(5):
                _, after = phi_decompose(state, objective, scheme, 0.1, 1e-8)
                stepped = step(scheme, state, objective, 0.1, 1e-8)
                assert np.array_equal(after.a, stepped.a)
                assert np.array_equal(after.b, stepped.b)
                state = stepped


class TestFeatureScaling:
    def test_degenerate_sweep(self):
        results = feature_scaling_experiment([32], steps=1, h=0.1, seeds=1)
        assert list(results) == [Scheme.ODE_RK4, Scheme.CLASSICAL_GD]
        assert [len(result.rows) for result in results.values()] == [8, 2]
        for result in results.values():
            assert all(slope is None for slope in result.slopes.values())

    def test_two_point_slope_fit(self):
        results = feature_scaling_experiment([32, 64], steps=2, h=0.1, seeds=1)
        fitted = [s for s in results[Scheme.ODE_RK4].slopes.values() if s is not None]
        assert len(fitted) >= 1

    def test_steps_form_no_weight_and_one_objective_per_instance(self, monkeypatch, tmp_path):
        # a step's m x n work would be B A, formed by LoRAFactors.delta; each
        # instance is drawn once, into the stack of its n, and the seeds of
        # one n share one objective, over that stack of their offsets, which
        # serves both schemes
        from odelora import diagnostics
        from odelora.cli import cmd_feature_scaling
        from odelora.problems import RegressionObjective

        deltas, instances, objectives = [], [], []
        real_delta, real_init = LoRAFactors.delta, RegressionObjective.__init__
        real_stack = diagnostics.make_regression_stack

        def counting_delta(self):
            deltas.append(1)
            return real_delta(self)

        def counting_stack(n, m, seeds):
            instances.extend((n, m, seed) for seed in seeds)
            return real_stack(n, m, seeds)

        def counting_init(self, problem):
            objectives.append(problem)
            real_init(self, problem)

        monkeypatch.setattr(LoRAFactors, "delta", counting_delta)
        monkeypatch.setattr(diagnostics, "make_regression_stack", counting_stack)
        monkeypatch.setattr(RegressionObjective, "__init__", counting_init)
        results = feature_scaling_experiment([16, 32], steps=3, h=0.1, seeds=2)
        for result in results.values():
            assert len(result.rows) == 2 * 2 * 3 * len(result.slopes)
        assert len(instances) == 4 and len(objectives) == 2
        assert [problem.s.shape for problem in objectives] == [(2, 16), (2, 32)]

        instances.clear()
        objectives.clear()
        assert cmd_feature_scaling(tmp_path, [16, 32], seeds=2, steps=3, h=0.1) == 0
        assert sorted(instances) == [(n, n, seed) for n in (16, 32) for seed in (0, 1)]
        assert len(objectives) == 2
        assert deltas == []

    def test_one_instance_alive_at_a_time(self):
        # no (n, seed) instance forms its dense W_pt, so the peak stays below
        # one and a half dense 512 x 512 W_pt (2 MiB each)
        import tracemalloc

        feature_scaling_experiment([8], 1, 0.1, [0])  # keeps one-off first-call allocations out
        tracemalloc.start()
        try:
            feature_scaling_experiment([512], 2, 0.1, [0, 1, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 512 * 512 * 8

    def test_stack_build_forms_no_dense_weight(self):
        # an n = 2048 stack of two seeds and their starts is drawn through one
        # buffer of row blocks: its peak stays below a quarter of one dense
        # 2048 x 2048 W_pt (32 MiB)
        import tracemalloc
        from odelora.diagnostics import _seed_stack

        _seed_stack(8, [0])  # keeps one-off first-call allocations out
        tracemalloc.start()
        try:
            objective, start = _seed_stack(2048, [0, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert objective.problem.offset.shape == (2, 2048) and start.a.shape == (2, 4, 2048)
        assert peak < 2048 * 2048 * 8 / 4

    def test_flow_divergence_takes_precedence(self, monkeypatch):
        # factor descent fails on the first instance and the flow only on the
        # second (as at h = 3.6 over n = 8, 16, where RK4's blow-up depends
        # on n): the flow's error is the one raised, as when each scheme ran
        # every instance in turn
        from odelora import diagnostics
        from odelora.linalg import NonFiniteState

        real_step = diagnostics.phi_decompose

        def failing_step(factors, objective, scheme, h, *eps):
            n = objective.problem.s.shape[-1]
            if (scheme, n) in ((Scheme.CLASSICAL_GD, 16), (Scheme.ODE_RK4, 32)):
                raise NonFiniteState("injected")
            return real_step(factors, objective, scheme, h, *eps)

        monkeypatch.setattr(diagnostics, "phi_decompose", failing_step)
        with pytest.raises(ScalingDiverged, match="ode_rk4 diverged at n = 32"):
            feature_scaling_experiment([16, 32], steps=2, h=0.1, seeds=1)
        with pytest.raises(ScalingDiverged, match="classical_gd diverged at n = 16"):
            feature_scaling_experiment([16], steps=2, h=0.1, seeds=1)

    def test_stacked_seeds_raise_the_single_seed_error(self):
        # at h = 3.6 RK4 first fails on seed 2 of n = 8, at step 16, while
        # seeds 0, 1, 3 and 4 run on; the stack names what seed 2 alone names
        with pytest.raises(ScalingDiverged) as alone:
            feature_scaling_experiment([8], 20, 3.6, [2])
        assert str(alone.value).startswith("ode_rk4 diverged at n = 8, seed = 2, step = 16: "
                                           "pivots [")
        with pytest.raises(ScalingDiverged) as stacked:
            feature_scaling_experiment([8, 16, 32], 20, 3.6, 5)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("n, seeds, seed, step", [
        # only seed 1 fails, and it is the last slice of the stack
        (32, [0, 2, 1], 1, 14),
        # seed 7 alone fails at step 9 and seed 2 alone at step 16: the seeds
        # run again alone in the order given, so the seed given first wins
        (8, [2, 7], 2, 16),
        (8, [7, 2], 7, 9),
    ])
    def test_seed_order_is_the_order_given(self, n, seeds, seed, step):
        with pytest.raises(ScalingDiverged) as alone:
            feature_scaling_experiment([n], 20, 3.6, [seed])
        assert f"seed = {seed}, step = {step}: " in str(alone.value)
        with pytest.raises(ScalingDiverged) as stacked:
            feature_scaling_experiment([n], 20, 3.6, seeds)
        assert str(stacked.value) == str(alone.value)

    def test_descent_divergence_is_raised_from_its_step_error(self):
        # factor descent blows up at h = 2 on the first instance after the
        # flow has run every instance; its error names the failing step and
        # is raised from the kernel's error, as the flow's is
        with pytest.raises(ScalingDiverged) as info:
            feature_scaling_experiment([8, 16], steps=20, h=2.0, seeds=1)
        assert str(info.value).startswith("classical_gd diverged at n = 8, seed = 0, step = 5: ")
        assert isinstance(info.value.__cause__, NonFiniteState)
        with pytest.raises(ScalingDiverged) as flow:
            feature_scaling_experiment([8], 20, 3.6, [2])
        assert isinstance(flow.value.__cause__, DIVERGENCE_ERRORS)

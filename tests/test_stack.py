"""A stack of k cells, stepped as one by ``run_stack``, gives each cell the
rows of its run alone, halts included, whether its cells share a scheme or
mix the six factor schemes; a stacked ``phi_decompose`` gives each slice its
report and post-step state alone."""

import dataclasses

import numpy as np
import pytest

from odelora.core import FactorGrams, LoRAFactors, effective_weight, gram_a, gram_b
from odelora.diagnostics import _seed_stack, phi_decompose
from odelora.linalg import NonFiniteState
from odelora.metrics import eps_ratio
from odelora.problems import (
    QuadraticObjective,
    RegressionStack,
    aligned_zero_b_init,
    balanced_init,
    make_regression_instance,
    make_sensing_instance,
    perturbed_balanced_init,
    perturbed_target_init,
    quadratic_objective,
    regression_objective,
    sensing_objective,
    zero_b_init,
)
from odelora import solvers as solvers_mod
from odelora.solvers import (DIVERGENCE_LOSS, Scheme, SolverConfig, run_stack, run_trajectory,
                             step)
from oracles import dense_evaluate, dense_sides

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

FACTOR_SCHEMES = [scheme for scheme in Scheme if scheme is not Scheme.FULL_FT]


def row_values(log):
    """Every logged value but the wall clock, as exact reprs (nan == nan)."""
    return repr([dataclasses.replace(row, wall_nanos=0) for row in log.rows])


def assert_stack_matches_single_runs(start, objective, configs, **flags):
    """Run ``configs`` as one stack and each alone; return the stack's logs."""
    logs = run_stack(start, objective, configs, **flags)
    assert len(logs) == len(configs)
    for j, (log, config) in enumerate(zip(logs, configs)):
        alone = run_trajectory(start.take(j) if start.stacked else start, objective, config,
                               **flags)
        assert log.diverged == alone.diverged
        assert row_values(log) == row_values(alone)
    return logs


# (m, n, o) of each sensing kind: the square instance takes the Gram form of
# its sides, the one with o = n / 4 the residual form
SENSING_SHAPES = {"sensing": (8, 8, 8), "sensing_o_lt_n": (9, 12, 3)}


def instance(kind: str, seed: int):
    """(start, objective) of a small problem of the given kind."""
    if kind in SENSING_SHAPES:
        p = make_sensing_instance(*SENSING_SHAPES[kind], 2, 0.05, seed)
        return perturbed_balanced_init(p, 0.8, 0.3, seed), sensing_objective(p)
    if kind == "regression":
        p = make_regression_instance(9, 7, seed)
        return zero_b_init(9, 7, 2, seed + 100), regression_objective(p)
    rng = np.random.default_rng(seed)
    w_pt = rng.standard_normal((6, 7))
    obj = quadratic_objective(w_pt + rng.standard_normal((6, 7)), mu=1.0, w_pt=w_pt)
    return perturbed_target_init(obj.optimum_w - w_pt, 3, 0.8, 0.3, seed), obj


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from([*SENSING_SHAPES, "regression", "quadratic"]),
    scheme=st.sampled_from(list(Scheme)),
    hs=st.lists(st.sampled_from([0.05, 0.5, 1.5, 2.2, 3.5, 8.0]), min_size=1, max_size=4),
    seed=st.integers(0, 3),
    log_eps_ratio=st.booleans(),
)
def test_stack_equals_single_runs(kind, scheme, hs, seed, log_eps_ratio):
    start, obj = instance(kind, seed)
    configs = [SolverConfig(scheme, h, 25) for h in hs]
    assert_stack_matches_single_runs(start, obj, configs, log_eps_ratio=log_eps_ratio)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from([*SENSING_SHAPES, "regression", "quadratic"]),
    cells=st.lists(st.tuples(st.sampled_from(FACTOR_SCHEMES),
                             st.sampled_from([0.05, 0.5, 1.5, 2.2, 3.5])),
                   min_size=2, max_size=8, unique=True),
    seed=st.integers(0, 3),
    log_eps_ratio=st.booleans(),
    log_balance=st.booleans(),
    eps_reg=st.sampled_from([1e-8, 0.0]),
)
# a baseline at h = 2.2 halts mid-run on the loss threshold while the flows
# and the other baselines step on (sensing in Gram form, then residual form)
@example("sensing", [(Scheme.ODE_RK4, 0.5), (Scheme.CLASSICAL_GD, 2.2),
                     (Scheme.ODE_EULER, 0.05), (Scheme.LORA_PRO, 0.5),
                     (Scheme.ODE_RK2, 2.2), (Scheme.RIEMANNIAN, 0.05)], 0, True, True, 1e-8)
@example("sensing_o_lt_n", [(Scheme.CLASSICAL_GD, 2.2), (Scheme.ODE_RK2, 0.5),
                            (Scheme.RIEMANNIAN, 3.5), (Scheme.ODE_RK4, 0.05)], 0, False, False,
         1e-8)
# a zero-B start at eps_reg = 0: the stacked first step is refused, so every
# live cell takes that step alone, and only classical_gd's steps on
@example("regression", [(Scheme.ODE_RK4, 0.5), (Scheme.CLASSICAL_GD, 0.5),
                        (Scheme.ODE_EULER, 0.5)], 2, True, False, 0.0)
@example("quadratic", [(scheme, 0.5) for scheme in FACTOR_SCHEMES], 3, False, True, 1e-8)
def test_mixed_scheme_stack_equals_single_runs(kind, cells, seed, log_eps_ratio, log_balance,
                                               eps_reg):
    start, obj = instance(kind, seed)
    configs = [SolverConfig(scheme, h, 25, eps_reg) for scheme, h in cells]
    assert_stack_matches_single_runs(start, obj, configs, log_eps_ratio=log_eps_ratio,
                                     log_balance=log_balance)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(4, 40),
    seeds=st.lists(st.integers(0, 50), min_size=1, max_size=4, unique=True),
    h=st.sampled_from([0.05, 0.1, 0.5, 1.5]),
    scheme=st.sampled_from([Scheme.ODE_RK4, Scheme.CLASSICAL_GD]),
)
def test_stacked_phi_equals_single_instances(n, seeds, h, scheme):
    # the stack keeps each instance's feature and offset, not its W_pt; each
    # slice alone runs on today's objective, which forms its offset from W_pt
    problems = [make_regression_instance(n, n, seed) for seed in seeds]
    singles = [regression_objective(p) for p in problems]
    states = [aligned_zero_b_init(p.s, n, 4, seed) for p, seed in zip(problems, seeds)]
    stack = regression_objective(RegressionStack(
        np.array([p.s for p in problems]), np.array([p.w_pt @ p.s - p.y for p in problems])))
    state = LoRAFactors(np.array([f.a for f in states]), np.array([f.b for f in states]))
    for _ in range(3):
        report, state = phi_decompose(state, stack, scheme, h)
        for j, objective in enumerate(singles):
            alone, states[j] = phi_decompose(states[j], objective, scheme, h)
            assert [norms[j] for norms in report.component_norms] == list(alone.component_norms)
            assert report.sum_check_residual[j] == alone.sum_check_residual
            assert np.array_equal(state.a[j], states[j].a)
            assert np.array_equal(state.b[j], states[j].b)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from([*SENSING_SHAPES, "regression", "quadratic"]),
    hs=st.lists(st.sampled_from([0.05, 0.5, 1.5, 2.2]), min_size=6, max_size=6),
    seed=st.integers(0, 3),
    spread=st.floats(-3.0, 0.0),
)
def test_public_steps_equal_their_slice_of_a_mixed_stack(kind, hs, seed, spread):
    # one slice per factor scheme, in stack order, each with its own state
    # and step size: one engine step of the stack must give each slice, bit
    # for bit, what its scheme's public step gives that slice's state alone
    start, obj = instance(kind, seed)
    schemes = tuple(solvers_mod._METHODS)
    rng = np.random.default_rng(seed)
    noise = 10.0 ** spread
    stack = LoRAFactors(start.a + noise * rng.standard_normal((6, *start.a.shape)),
                        start.b + noise * rng.standard_normal((6, *start.b.shape)))
    after, _ = solvers_mod._rk_step(schemes, stack, obj, np.array(hs)[:, None, None], 1e-8)
    for j, (scheme, h) in enumerate(zip(schemes, hs)):
        alone = step(scheme, stack.take(j), obj, h, 1e-8)
        assert after.a[j].tobytes() == alone.a.tobytes()
        assert after.b[j].tobytes() == alone.b.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 120),
    n=st.integers(1, 120),
    r=st.integers(1, 4),
    k=st.integers(0, 4),
    mu=st.floats(0.01, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadratic_reads_a_stack_as_the_dense_route_does(m, n, r, k, mu, seed):
    # the quadratic forms G and the loss on the whole stack at once; each
    # slice (k = 0: an unstacked state) must get, bit for bit, what the dense
    # route gives from grad and loss at that slice's W alone. Up to 120 x 120
    # weights, so that a loss sums more than one buffer of 8192 entries.
    r = min(r, m, n)
    rng = np.random.default_rng(seed)
    lead = (k,) if k else ()
    w_pt = rng.standard_normal((m, n))
    obj = quadratic_objective(w_pt + rng.standard_normal((m, n)), mu, w_pt)
    f = LoRAFactors(rng.standard_normal((*lead, r, n)), rng.standard_normal((*lead, m, r)))
    sides, dense = obj.sides(f), dense_sides(obj, f)
    got, want = obj.evaluate(f), dense_evaluate(obj, f)
    for x, y in [*zip(sides, dense), *zip(got.sides, want.sides), (got.grad, want.grad)]:
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert np.shape(got.loss) == np.shape(want.loss)
    assert np.asarray(got.loss).tobytes() == np.asarray(want.loss).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["sensing", "regression", "quadratic"]),
    m=st.integers(1, 120),
    n=st.integers(1, 120),
    o=st.integers(1, 120),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_loss_and_grad_read_a_stack(kind, m, n, o, k, seed):
    # loss and grad of a (k, m, n) stack of weights, one call each, must give
    # each slice, bit for bit, what they give at that slice's W alone. Up to
    # 120 x 120 weights, so that a loss sums more than one buffer of 8192
    # entries.
    rng = np.random.default_rng(seed)
    if kind == "sensing":
        obj = sensing_objective(make_sensing_instance(m, n, min(o, n), 1, 0.05, seed))
    elif kind == "regression":
        obj = regression_objective(make_regression_instance(n, m, seed))
    else:
        obj = quadratic_objective(rng.standard_normal((m, n)), rng.uniform(0.01, 100.0),
                                  rng.standard_normal((m, n)))
    w = rng.standard_normal((k, m, n))
    loss, g = obj.loss(w), obj.grad(w)
    assert np.shape(loss) == (k,) and g.shape == (k, m, n)
    for j in range(k):
        assert loss[j].tobytes() == np.float64(obj.loss(w[j])).tobytes()
        assert g[j].tobytes() == obj.grad(w[j]).tobytes()


def eps_ratio_alone(f, g, eps):
    """``metrics.eps_ratio``'s trace identity at one state, its ||G||^2 and
    traces taken one np.vdot at a time."""
    grams = FactorGrams(f, eps)
    bt_g, g_at = f.b.T @ g, g @ f.a.T
    t = bt_g @ f.a.T
    m, n = g.shape
    left = grams.solve_b(np.concatenate((bt_g, t), axis=1))
    right = grams.solve_a(np.concatenate((g_at.T, t.T), axis=1))
    norm2 = np.vdot(g, g)
    trapped = (norm2 - np.vdot(left[:, :n], bt_g) - np.vdot(right[:, :m], g_at.T)
               + np.vdot(left[:, n:], right[:, m:].T))
    return float(trapped) / norm2


def sensing_dist_alone(problem, f):
    """``SensingObjective.dist_to_opt``'s factor form at one state, its
    squares taken one np.vdot at a time."""
    q, r = np.linalg.qr(problem.b_star)
    p = q.T @ f.b
    e = p @ f.a - r @ problem.a_star
    b_perp = f.b - q @ p
    return float(np.sqrt(np.vdot(e, e) + max(np.vdot(b_perp.T @ b_perp, f.a @ f.a.T), 0.0)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from([*SENSING_SHAPES, "regression", "quadratic"]),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=5),
    seed=st.integers(0, 3),
    spread=st.floats(-3.0, 0.5),
    full=st.booleans(),
    eps_reg=st.sampled_from([1e-8, 0.0]),
)
def test_stacked_row_equals_each_slice_alone(kind, picks, seed, spread, full, eps_reg):
    # a stack of random states, picked from a pool of six in any order and
    # with repeats, so that its slices are not adjacent in the pool; its
    # first row takes each value as one stacked call, and each slice must get
    # what the per-slice call gives that slice alone
    start, obj = instance(kind, seed)
    rng = np.random.default_rng(seed)
    noise = 10.0 ** spread
    pool = LoRAFactors(start.a + noise * rng.standard_normal((6, *start.a.shape)),
                       start.b + noise * rng.standard_normal((6, *start.b.shape)))
    stack = pool.take(picks)
    scheme = Scheme.FULL_FT if full else Scheme.ODE_RK4
    logs = run_stack(stack, obj, [SolverConfig(scheme, 0.1, 0, eps_reg)] * len(picks))
    for pick, log in zip(picks, logs):
        f = pool.take(pick)
        w = effective_weight(obj.w_pt, f)
        if full:
            loss, g = obj.loss(w), obj.grad(w)
        else:
            g = obj.evaluate(f).grad
            resid = None if kind == "quadratic" else obj._residual(f)[0]
            if kind == "quadratic":
                loss = obj.loss(w)
            elif kind == "regression":
                loss = float(resid @ resid)
            else:
                loss = 0.5 * float(np.sum(resid * resid))
        [row] = log.rows
        assert row.loss == loss
        assert row.grad_norm == float(np.linalg.norm(g))
        if kind in SENSING_SHAPES and not full:
            dist = obj.dist_to_opt(f)
            assert dist == sensing_dist_alone(obj.problem, f)
        else:
            dist = None if obj.optimum_w is None else float(np.linalg.norm(w - obj.optimum_w))
        assert row.dist_to_opt == dist
        if full:
            assert row.balance_defect is None and row.eps_ratio is None
        else:
            assert row.balance_defect == float(np.linalg.norm(gram_a(f) - gram_b(f)))
            assert row.eps_ratio == eps_ratio(f, g, eps_reg) == eps_ratio_alone(f, g, eps_reg)


@pytest.fixture(scope="module")
def sweep_small():
    """The benchmark's sweep-small instance and start (seed 0)."""
    p = make_sensing_instance(40, 40, 40, 4, 0.05, 0)
    return perturbed_balanced_init(p, 0.8, 0.05, 0), sensing_objective(p)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_sweep_small_cells_halt_on_their_own_rows(sweep_small, scheme):
    start, obj = sweep_small
    configs = [SolverConfig(scheme, h, 100) for h in (2.2, 0.1, 0.5)]
    logs = assert_stack_matches_single_runs(start, obj, configs, log_eps_ratio=False)
    halts = {Scheme.CLASSICAL_GD: 4, Scheme.RIEMANNIAN: 20, Scheme.LORA_PRO: 61,
             Scheme.FULL_FT: 61}
    assert [len(log.rows) for log in logs] == [halts.get(scheme, 101), 101, 101]
    assert [log.diverged for log in logs] == [scheme in halts, False, False]


def test_sweep_small_factor_cells_as_one_stack(sweep_small):
    # the sweep's factor stack: six schemes x three step sizes in one stack,
    # from which three baselines at h = 2.2 leave on their own rows
    start, obj = sweep_small
    configs = [SolverConfig(scheme, h, 100) for scheme in FACTOR_SCHEMES for h in (2.2, 0.1, 0.5)]
    logs = assert_stack_matches_single_runs(start, obj, configs, log_eps_ratio=False)
    halts = {Scheme.CLASSICAL_GD: 4, Scheme.RIEMANNIAN: 20, Scheme.LORA_PRO: 61}
    assert [len(log.rows) for log in logs[::3]] == [halts.get(s, 101) for s in FACTOR_SCHEMES]
    assert all(len(log.rows) == 101 and not log.diverged for j, log in enumerate(logs) if j % 3)


def test_sweep_small_with_eps_ratio_logged(sweep_small):
    start, obj = sweep_small
    configs = [SolverConfig(Scheme.ODE_RK4, h, 30) for h in (0.1, 0.5, 2.2)]
    logs = assert_stack_matches_single_runs(start, obj, configs)
    assert all(row.eps_ratio is not None for log in logs for row in log.rows)


@pytest.mark.parametrize("scheme", [Scheme.ODE_EULER, Scheme.ODE_RK4, Scheme.RIEMANNIAN,
                                    Scheme.LORA_PRO])
def test_slice_refused_by_the_kernel_leaves_the_stack(sweep_small, scheme):
    # B = 0 at eps_reg = 0: the Gram pivot check refuses that slice's step,
    # which raises for the whole stack; each cell then takes that step
    # alone, so only that one halts
    start, obj = sweep_small
    zero_b = LoRAFactors(start.a, np.zeros_like(start.b))
    stack = LoRAFactors(np.stack([start.a, zero_b.a, start.a]),
                        np.stack([start.b, zero_b.b, start.b]))
    configs = [SolverConfig(scheme, h, 20, eps_reg=0.0) for h in (0.1, 0.1, 0.5)]
    logs = assert_stack_matches_single_runs(stack, obj, configs, log_eps_ratio=False)
    assert [log.diverged for log in logs] == [False, True, False]
    assert [row.iter for row in logs[1].rows] == [0, 1]
    assert np.isnan(logs[1].rows[-1].loss)


class RefusesLargeB(QuadraticObjective):
    """A quadratic objective whose stage sides refuse the whole stack once
    any slice's ||B||_F passes ``bound``, as the stacked kernel refuses every
    slice at once."""

    bound = 1e4

    def sides(self, factors):
        if (np.linalg.norm(factors.b, axis=(-2, -1)) > self.bound).any():
            raise NonFiniteState("||B||_F past the bound")
        return super().sides(factors)


def test_stack_whose_step_raises_steps_its_live_cells_alone():
    # RK2 on the quadratic instance of seed 0: the h = 8 cell halts on the
    # loss threshold (its ||B||_F stays under 2.5e3); later the h = 1.5
    # cell's B passes the bound while three cells are live, which raises
    # for the stack. Each live cell takes that step alone: the h = 1.5 cell
    # halts at its own refused step, and the others run to the end.
    start, quadratic = instance("quadratic", 0)
    obj = RefusesLargeB(quadratic.w_star, quadratic.mu, quadratic.w_pt)
    configs = [SolverConfig(Scheme.ODE_RK2, h, 60) for h in (8.0, 1.5, 0.5, 2.2)]
    logs = assert_stack_matches_single_runs(start, obj, configs, log_eps_ratio=False)
    assert [log.diverged for log in logs] == [True, True, False, False]
    assert DIVERGENCE_LOSS < logs[0].rows[-1].loss < np.inf
    assert np.isnan(logs[1].rows[-1].loss)
    assert len(logs[0].rows) < len(logs[1].rows) < 61
    assert [len(log.rows) for log in logs[2:]] == [61, 61]


def test_refused_stack_step_is_retried_by_each_live_cell_alone(monkeypatch):
    # a zero-B regression start at eps_reg = 0: the kernel refuses B's Gram,
    # which raises for the stack's first step. Each of the four live cells
    # takes that step alone, as a stack of one; the flows' steps are refused
    # again and they halt, and the classical_gd cells, whose direction
    # factors no Gram, step on as one stack. No cell runs again from its
    # start, and each log is the one its cell gives alone.
    start, obj = instance("regression", 2)
    cells = [(Scheme.ODE_RK4, 0.5), (Scheme.CLASSICAL_GD, 0.5), (Scheme.ODE_EULER, 0.5),
             (Scheme.CLASSICAL_GD, 0.1)]
    configs = [SolverConfig(scheme, h, 25, 0.0) for scheme, h in cells]
    runs, steps = [], []
    real_run, real_step = solvers_mod.run_stack, solvers_mod._rk_step

    def run_spy(*args, **flags):
        runs.append(1)
        return real_run(*args, **flags)

    def step_spy(schemes, factors, *args):
        steps.append(len(factors.a))
        return real_step(schemes, factors, *args)

    monkeypatch.setattr(solvers_mod, "run_stack", run_spy)
    monkeypatch.setattr(solvers_mod, "_rk_step", step_spy)
    logs = solvers_mod.run_stack(start, obj, configs)
    monkeypatch.undo()
    assert len(runs) == 1
    # the refused stacked step, one step per live cell alone, then the two
    # classical_gd cells' 24 further steps as one stack
    assert steps == [4, 1, 1, 1, 1] + [2] * 24
    for log, config in zip(logs, configs):
        alone = run_trajectory(start, obj, config)
        assert log.diverged == alone.diverged == (config.scheme is not Scheme.CLASSICAL_GD)
        assert row_values(log) == row_values(alone)


def test_slice_with_a_refused_ratio_logs_a_blank(sweep_small):
    # B = 0 at eps_reg = 0, with the ratio logged: the kernel refuses that
    # slice's ratio, which raises for the whole stack; the stacked ratio
    # falls back to slice-by-slice and logs None there, as a run alone does
    start, obj = sweep_small
    stack = LoRAFactors(np.stack([start.a, start.a, start.a]),
                        np.stack([start.b, np.zeros_like(start.b), start.b]))
    for scheme in Scheme:
        configs = [SolverConfig(scheme, h, 10, eps_reg=0.0) for h in (0.1, 0.1, 0.5)]
        logs = assert_stack_matches_single_runs(stack, obj, configs)
        if scheme is not Scheme.FULL_FT:
            assert [log.rows[0].eps_ratio is None for log in logs] == [False, True, False]


def test_slice_with_a_vanishing_gradient_logs_a_zero_ratio():
    # a start at the optimum has no null-space ratio; the stacked ratio
    # falls back to slice-by-slice and logs 0.0 there, as a run alone does
    rng = np.random.default_rng(5)
    w_pt = rng.standard_normal((6, 7))
    target = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 7))
    obj = quadratic_objective(w_pt + target, mu=1.0, w_pt=w_pt)
    exact, off = balanced_init(target, 2), perturbed_target_init(target, 2, 0.8, 0.3, 5)
    stack = LoRAFactors(np.stack([off.a, exact.a]), np.stack([off.b, exact.b]))
    configs = [SolverConfig(Scheme.ODE_RK2, 0.2, 5)] * 2
    logs = assert_stack_matches_single_runs(stack, obj, configs)
    assert logs[1].rows[0].eps_ratio == 0.0 and logs[0].rows[0].eps_ratio > 0.0


def test_cells_may_differ_only_in_scheme_and_step_size(sweep_small):
    start, obj = sweep_small
    rk4 = SolverConfig(Scheme.ODE_RK4, 0.2, 5)
    logs = run_stack(start, obj, [rk4, SolverConfig(Scheme.ODE_RK2, 0.1, 5)])
    assert [len(log.rows) for log in logs] == [6, 6]
    for other in (SolverConfig(Scheme.ODE_RK4, 0.1, 6), SolverConfig(Scheme.ODE_RK2, 0.1, 6),
                  SolverConfig(Scheme.ODE_RK4, 0.1, 5, eps_reg=0.0)):
        with pytest.raises(ValueError, match="schemes and step sizes"):
            run_stack(start, obj, [rk4, other])
    for factor in (rk4, SolverConfig(Scheme.CLASSICAL_GD, 0.2, 5)):
        with pytest.raises(ValueError, match="full_ft"):
            run_stack(start, obj, [factor, SolverConfig(Scheme.FULL_FT, 0.2, 5)])


def test_empty_stack_is_rejected_before_the_objective_is_read():
    # a RegressionStack objective has no base weight, which a read would
    # report as TypeError; an empty stack must be named first
    objective, start = _seed_stack(8, [0, 1])

    def read(*args):
        raise AssertionError("the objective was read")

    objective.sides = objective.evaluate = objective.grad = objective.loss = read
    with pytest.raises(ValueError, match="empty stack"):
        run_stack(start, objective, [])


def test_stacked_factors_are_checked_as_one_stack():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((3, 2, 7)), rng.standard_normal((3, 6, 2))
    stack = LoRAFactors(a, b)
    assert stack.stacked and stack.rank == 2 and stack.shape == (6, 7)
    one = stack.take(1)
    assert not one.stacked and np.array_equal(one.a, a[1]) and np.array_equal(one.b, b[1])
    with pytest.raises(ValueError, match="stack mismatch"):
        LoRAFactors(a, b[:2])
    with pytest.raises(ValueError, match="stack mismatch"):
        LoRAFactors(a, b[0])
    with pytest.raises(ValueError, match="rank mismatch"):
        LoRAFactors(a, rng.standard_normal((3, 6, 3)))

"""The per-state field kernel: factorization counts, the non-finite-state
signal, and randomized properties of the field it computes and of the
gradient sides it reads.

The property tests draw shapes, factor and gradient scales from 1e-6 to 1e3
and eps in {0, 1e-8}, and check the paper's identities against routes that
do not go through ``FactorGrams``: plain ``np.linalg.solve`` on the Grams,
the Kronecker-vectorized Sylvester oracle and the explicit null projectors
(the oracle's ``flow_rhs_full``). Only the flow identity at a Gram condition
number of 1e14 is checked against ``FactorGrams`` itself; see
``TestNearRankDeficientB``.
The residual-form objectives are checked against the oracle's dense route
(``dense_sides``, ``dense_evaluate``), which forms G.
"""

import dataclasses

import numpy as np
import pytest

import odelora.solvers as solvers
from odelora.cli import Experiment
from odelora.config import ExperimentConfig
from odelora.core import (
    FactorGrams,
    LoRAFactors,
    Sides,
    effective_weight,
    gram_a,
    gram_b,
)
from odelora.diagnostics import _seed_stack, phi_decompose
from odelora.linalg import NonFiniteState, NotPositiveDefinite, as_matrix
from odelora.metrics import eps_ratio
from odelora.problems import (
    RegressionObjective,
    RegressionProblem,
    SensingObjective,
    SensingProblem,
    make_regression_instance,
    make_sensing_instance,
    perturbed_balanced_init,
    quadratic_objective,
)
from odelora.solvers import (
    _METHODS,
    Scheme,
    SolverConfig,
    _lorapro_direction,
    _rk_step,
    run_trajectory,
    step,
)
from oracles import (dense_evaluate, dense_field, dense_sides, flow_rhs_full, gradient_sides,
                     kron_sylvester, null_projector_a, null_projector_b)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def count_factorizations(monkeypatch, per_call: bool) -> dict:
    """Count numpy's Cholesky factorizations and symmetric eigensolves, by
    call or by the matrices they act on."""
    counts = {"cholesky": 0, "eigh": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1 if per_call else int(np.prod(np.shape(args[0])[:-2]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


@pytest.fixture
def counted(monkeypatch):
    """Count the matrices numpy's Cholesky factorizations and symmetric
    eigensolves act on: a call on a (k, r, r) stack counts k."""
    return count_factorizations(monkeypatch, per_call=False)


@pytest.fixture
def calls(monkeypatch):
    """Count numpy's Cholesky and symmetric eigensolver calls, whatever the
    stacks they act on."""
    return count_factorizations(monkeypatch, per_call=True)


@pytest.fixture
def gram_solves(monkeypatch):
    """Count the Gram inverses ``FactorGrams`` applies, one per
    ``solve_a`` or ``solve_b`` call whatever the right-hand side's width."""
    calls = []
    for name in ("solve_a", "solve_b"):
        real = getattr(FactorGrams, name)

        def counting(self, rhs, _real=real):
            calls.append(1)
            return _real(self, rhs)

        monkeypatch.setattr(FactorGrams, name, counting)
    return calls


@pytest.fixture
def field_calls(monkeypatch):
    """Count the engine's calls of ``core.field_eval`` through a wrapper under
    that name in ``solvers``, where the benchmark's tracer puts its own."""
    calls = []
    real = solvers.field_eval

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "field_eval", counting)
    return calls


def random_state(rng, r=4, m=9, n=11):
    f = LoRAFactors(a=rng.standard_normal((r, n)), b=rng.standard_normal((m, r)))
    return f, rng.standard_normal((m, n))


class TestFactorizationCounts:
    def test_field_eval_factors_each_gram_once(self, rng, counted):
        f, g = random_state(rng)
        dense_field(f, g, 1e-8)
        assert counted == {"cholesky": 2, "eigh": 1}

    def test_lorapro_direction(self, rng, counted):
        f, g = random_state(rng)
        _lorapro_direction(f, gradient_sides(f, g), FactorGrams(f, 1e-8))
        assert counted == {"cholesky": 2, "eigh": 0}

    def test_riemannian_direction(self, rng, counted):
        f, g = random_state(rng)
        w_pt = np.zeros(f.shape)
        step(Scheme.RIEMANNIAN, f, quadratic_objective(g, mu=1.0, w_pt=w_pt), 0.1, 1e-8)
        assert counted == {"cholesky": 2, "eigh": 0}

    def test_mixed_stack_step_factors_once_per_stage(self, rng, calls, field_calls):
        # one slice per factor scheme, in stack order (RK4, RK2, Euler,
        # riemannian, lora_pro, classical_gd): each of RK4's four stages
        # factors the Grams of its slices whose directions read them in one
        # call, and the flows among them share one field evaluation
        states = [random_state(rng)[0] for _ in _METHODS]
        stack = LoRAFactors(np.array([f.a for f in states]), np.array([f.b for f in states]))
        w_pt = np.zeros(stack.shape)
        objective = quadratic_objective(rng.standard_normal(stack.shape), mu=1.0, w_pt=w_pt)
        h = np.full((len(states), 1, 1), 0.1)
        _rk_step(tuple(_METHODS), stack, objective, h, 1e-8)
        assert calls == {"cholesky": 4, "eigh": 4}
        assert len(field_calls) == 4

    @pytest.mark.parametrize("scheme, stages", [
        (Scheme.ODE_RK4, 4), (Scheme.ODE_RK2, 2), (Scheme.ODE_EULER, 1),
        (Scheme.CLASSICAL_GD, 0), (Scheme.RIEMANNIAN, 0), (Scheme.LORA_PRO, 0),
    ])
    def test_step_calls_the_field_once_per_flow_stage(self, rng, field_calls, scheme, stages):
        f, g = random_state(rng)
        step(scheme, f, quadratic_objective(g, mu=1.0, w_pt=np.zeros(f.shape)), 0.1, 1e-8)
        assert len(field_calls) == stages

    def test_stacked_phi_decompose_calls_the_field_once_per_stage(self, field_calls):
        objective, start = _seed_stack(8, [0, 1, 2])
        phi_decompose(start, objective, Scheme.ODE_RK4, 0.1)
        assert len(field_calls) == 4

    def test_flow_rhs_full_and_eps_ratio(self, rng, counted):
        f, g = random_state(rng)
        eps_ratio(f, g, 1e-8)
        assert counted == {"cholesky": 2, "eigh": 0}

    def test_field_eval_makes_three_gram_solves(self, rng, gram_solves):
        # both right-hand sides of B's Gram go through one solve
        f, g = random_state(rng)
        dense_field(f, g, 1e-8)
        assert len(gram_solves) == 3

    def test_eps_ratio_makes_two_gram_solves(self, rng, gram_solves):
        # each Gram's two right-hand sides of the trace identity share one solve
        f, g = random_state(rng)
        eps_ratio(f, g, 1e-8)
        assert len(gram_solves) == 2


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
            dense_field(f, g, 1e-8)

    def test_non_finite_gradient(self, rng):
        f, g = random_state(rng)
        g[0, 0] = np.nan
        with pytest.raises(NonFiniteState):
            dense_field(f, g)


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


def assert_flow_identity(f, g, eps, fe, rel_tol, reference=flow_rhs_full):
    """B F_A + F_B A = ``reference(f, g, eps)`` to ``rel_tol`` ||G||; the
    reference is the oracle's ``-G + P_B^null G P_A^null`` by default."""
    dw = f.b @ fe.f_a + fe.f_b @ f.a
    tol = rel_tol * np.linalg.norm(g)
    assert np.linalg.norm(dw - reference(f, g, eps)) <= tol


def flow_rhs_on_factor_grams(f, g, eps):
    """-G + P_B^null G P_A^null applied through the library's own Gram
    inverses (``FactorGrams``) rather than the oracle's."""
    grams = FactorGrams(f, eps)
    left = grams.project_out_b(g)
    return -g + (left - grams.solve_a((left @ f.a.T).T).T @ f.a)


def assert_tangent(f, g, eps, fe, rel_tol):
    """The field is tangent to A A^T = B^T B up to its eps term, to
    ``rel_tol`` times the size of the terms that cancel."""
    # d/dt (A A^T - B^T B) along the field is 0 for eps = 0; with eps the
    # regularized Gram inverses leave eps (U + U^T - 4 X), where
    # U = (B^T B + eps I)^{-1} B^T G A^T (A A^T + eps I)^{-1}
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
    assert norm(residual - expected) <= rel_tol * scale


class TestFieldProperties:
    @PROPERTY_SETTINGS
    @given(states())
    def test_effective_velocity_is_flow_rhs_full(self, state):
        f, g, eps = state
        assume_factorable(f, eps)
        assert_flow_identity(f, g, eps, dense_field(f, g, eps), 1e-13 * conditioning(f, eps))

    @PROPERTY_SETTINGS
    @given(states())
    def test_tangent_to_balanced_manifold(self, state):
        f, g, eps = state
        assume_factorable(f, eps)
        assert_tangent(f, g, eps, dense_field(f, g, eps), 1e-13 * conditioning(f, eps))

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
    def test_eps_ratio_matches_the_dense_projectors(self, state):
        # the library reads the ratio from G's sides by a trace identity;
        # the oracle projects G through both explicit null projectors
        f, g, eps = state
        assume_factorable(f, eps)
        trapped = null_projector_b(f, eps) @ g @ null_projector_a(f, eps)
        want = float(np.sum(trapped * g)) / float(np.sum(g * g))
        assert abs(eps_ratio(f, g, eps) - want) <= 1e-14 * conditioning(f, eps)

    @PROPERTY_SETTINGS
    @given(states())
    def test_gauge_matches_kronecker_sylvester(self, state):
        f, g, eps = state
        assume_factorable(f, eps)
        x = dense_field(f, g, eps).x
        t = np.linalg.solve(gram_b(f, eps), f.b.T @ g @ f.a.T)
        x_oracle = kron_sylvester(gram_a(f, eps) + gram_b(f, eps), t + t.T)
        tol = 1e-13 * conditioning(f, eps) * np.linalg.norm(x_oracle)
        assert np.linalg.norm(x - x_oracle) <= tol

    @PROPERTY_SETTINGS
    @given(states(), st.integers(0, 2**32 - 1))
    def test_weight_velocity_is_gauge_invariant(self, state, seed):
        # B F_A + F_B A = -P_T(G) depends only on B's column space and A's
        # row space, so a gauge change (A, B) -> (T A, B T^-1) keeps it; at
        # eps = 0 only, since the Tikhonov term is not gauge-invariant
        f, g, _ = state
        rng = np.random.default_rng(seed)
        q_left, _ = np.linalg.qr(rng.standard_normal((f.rank, f.rank)))
        q_right, _ = np.linalg.qr(rng.standard_normal((f.rank, f.rank)))
        t = (q_left * np.exp(rng.uniform(-1.0, 1.0, f.rank))) @ q_right  # cond(T) <= e^2
        moved = LoRAFactors(t @ f.a, f.b @ np.linalg.inv(t))
        assume_factorable(f, 0.0)
        assume_factorable(moved, 0.0)

        def velocity(factors):
            fe = dense_field(factors, g, 0.0)
            return factors.b @ fe.f_a + fe.f_b @ factors.a

        kappa = conditioning(f, 0.0) + conditioning(moved, 0.0)
        tol = 1e-14 * np.linalg.cond(t) * kappa * np.linalg.norm(g)
        assert np.linalg.norm(velocity(moved) - velocity(f)) <= tol

    @PROPERTY_SETTINGS
    @given(states(), st.sampled_from([0.5, 1.0, 2.0]))
    def test_rank_deficient_b_is_refused(self, state, c):
        f, g, _ = state
        b = f.b.copy()
        b[:, -1] = c * b[:, 0] if f.rank > 1 else 0.0
        degenerate = LoRAFactors(a=f.a, b=b)
        with pytest.raises(NotPositiveDefinite):
            dense_field(degenerate, g, 0.0)
        # the engine factors the Grams that lora_pro's and riemannian's
        # directions read, so their refusal is that factorization's
        with pytest.raises(NotPositiveDefinite):
            FactorGrams(degenerate, 0.0)


@st.composite
def near_rank_deficient_states(draw):
    """Random (factors, gradient) whose B has smallest singular value
    1e-7 ||B||_2: r in [2, 4], m and n up to 9, scales as in ``states``."""
    r = draw(st.integers(2, 4))
    m = draw(st.integers(r, 9))
    n = draw(st.integers(r, 9))
    scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    g_scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal((m, r)))
    v, _ = np.linalg.qr(rng.standard_normal((r, r)))
    top = np.sort(rng.uniform(0.5, 1.0, r - 1))[::-1]
    sigma = np.append(top, 1e-7 * top[0])
    f = LoRAFactors(a=scale * rng.standard_normal((r, n)), b=scale * (u * sigma) @ v.T)
    return f, g_scale * rng.standard_normal((m, n))


class TestNearRankDeficientB:
    @PROPERTY_SETTINGS
    @given(near_rank_deficient_states())
    def test_field_is_refused_or_meets_the_identities(self, state):
        # B's Gram has condition number 1e14, at the kernel's pivot rule:
        # the kernel may refuse it, but a field it returns must be finite
        # and satisfy the flow and tangency identities at eps = 0. The flow
        # identity is a consistency check only: its reference applies the
        # projectors through the library's own Gram inverses, because at
        # this conditioning the projected form is itself ill-conditioned.
        # Against a 60-digit mpmath reference, the field, the projected
        # form on FactorGrams and the Gaussian-elimination oracle each
        # missed the exact value in 25 of 39 draws, by up to 2.9e3 times
        # this tolerance, so no independent route can be held to it. The
        # tolerance scales with sqrt(cond) = sigma_max / sigma_min of B, the
        # amplification the field's B-side solve can reach; the full
        # condition number would allow 10 ||G||, which a zero field meets.
        # In 950 accepted draws the field used at most 2e-8 ||G|| (flow) and
        # 4e-9 of the cancelling terms (tangency) against 1e-6 here, while
        # F_A scaled by 1 + 1e-6 missed the flow by at least 9e-4 ||G|| and
        # a 1e-3 error in the gauge X missed tangency by at least 2e-5.
        f, g = state
        try:
            fe = dense_field(f, g, 0.0)
        except NotPositiveDefinite:
            return
        assert all(np.all(np.isfinite(part)) for part in fe)
        rel_tol = 1e-13 * np.sqrt(conditioning(f, 0.0))
        assert_flow_identity(f, g, 0.0, fe, rel_tol, reference=flow_rhs_on_factor_grams)
        assert_tangent(f, g, 0.0, fe, rel_tol)


@st.composite
def residual_problems(draw):
    """A sensing or regression objective on random data with a random factor
    state: r <= 3, m, n and o up to 9, factor scales log-uniform in
    [1e-3, 1e3]."""
    r = draw(st.integers(1, 3))
    m = draw(st.integers(r, 9))
    n = draw(st.integers(r, 9))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return sensing_case(m, n, draw(st.integers(1, n)), r, seed, scale)
    rng = np.random.default_rng(seed)
    objective = RegressionObjective(RegressionProblem(
        w_pt=rng.standard_normal((m, n)), s=rng.standard_normal(n), y=rng.standard_normal(m)))
    f = LoRAFactors(a=scale * rng.standard_normal((r, n)), b=scale * rng.standard_normal((m, r)))
    return objective, f


def sensing_case(m, n, o, r=2, seed=0, scale=1.0):
    """A sensing objective on random data from ``default_rng(seed)``, with a
    random factor state of the given scale."""
    rng = np.random.default_rng(seed)
    w_pt = rng.standard_normal((m, n))
    objective = SensingObjective(SensingProblem(
        s=rng.standard_normal((n, o)), y=rng.standard_normal((m, o)), w_pt=w_pt,
        a_star=rng.standard_normal((r, n)), b_star=rng.standard_normal((m, r)), delta=0.0,
    ))
    f = LoRAFactors(a=scale * rng.standard_normal((r, n)), b=scale * rng.standard_normal((m, r)))
    return objective, f


def both_forms(test):
    """Add one sensing example on each side of the shape rule: o = n takes
    the Gram form of the sides, o = n / 4 the residual form."""
    return example(sensing_case(9, 8, 8))(example(sensing_case(9, 8, 2))(test))


def residual_scale(objective, f, w_pt):
    """A bound on the size of the terms summed into the residual W s - y."""
    p, norm = objective.problem, np.linalg.norm
    return norm(w_pt) * norm(p.s) + norm(p.y) + norm(f.b) * norm(f.a) * norm(p.s)


def assert_sides_close(got, want, objective, f, w_pt):
    factor = 2.0 if isinstance(objective, RegressionObjective) else 1.0
    g_tol = factor * 1e-13 * residual_scale(objective, f, w_pt) * np.linalg.norm(
        objective.problem.s)
    assert np.linalg.norm(got.bt_g - want.bt_g) <= g_tol * np.linalg.norm(f.b)
    assert np.linalg.norm(got.g_at - want.g_at) <= g_tol * np.linalg.norm(f.a)


class TestResidualForm:
    @PROPERTY_SETTINGS
    @given(residual_problems())
    @both_forms
    def test_evaluate_matches_dense(self, case):
        objective, f = case
        w_pt = objective.w_pt
        got = objective.evaluate(f)
        want = dense_evaluate(objective, f)
        factor = 2.0 if isinstance(objective, RegressionObjective) else 1.0
        dense_resid = np.linalg.norm(effective_weight(w_pt, f) @ objective.problem.s
                                     - objective.problem.y)
        tol = 1e-13 * residual_scale(objective, f, w_pt)
        assert abs(got.loss - want.loss) <= factor * tol * (dense_resid + tol)
        g_tol = factor * tol * np.linalg.norm(objective.problem.s)
        assert np.linalg.norm(got.grad - want.grad) <= g_tol
        assert_sides_close(got.sides, want.sides, objective, f, w_pt)

    @PROPERTY_SETTINGS
    @given(residual_problems())
    @both_forms
    def test_sides_are_the_logged_sides(self, case):
        objective, f = case
        sides, logged = objective.sides(f), objective.evaluate(f).sides
        assert all(np.array_equal(x, y) for x, y in zip(sides, logged))

    @PROPERTY_SETTINGS
    @given(residual_problems())
    @both_forms
    def test_another_base_weight_is_not_served_from_the_cache(self, case):
        objective, f = case
        objective.evaluate(f)  # caches C0 and, for sensing, C0 S^T
        # an objective on the same S and Y with base W_pt + 1 builds its own
        other = type(objective)(dataclasses.replace(objective.problem, w_pt=objective.w_pt + 1.0))
        got, want = other.sides(f), dense_sides(other, f)
        assert_sides_close(got, want, other, f, other.w_pt)
        factor = 2.0 if isinstance(objective, RegressionObjective) else 1.0
        g_tol = factor * 1e-13 * residual_scale(other, f, other.w_pt) * np.linalg.norm(
            objective.problem.s)
        grad = other.evaluate(f).grad
        assert np.linalg.norm(grad - dense_evaluate(other, f).grad) <= g_tol

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 12), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_losses_at_the_exact_optimum_are_round_off(self, n, r, seed):
        # o = n takes the Gram form of the sensing sides, o = n / 4 the residual form
        cases = []
        for o in (n, max(1, n // 4)):
            sensing = make_sensing_instance(n + 1, n, o, min(r, n), 0.05, seed)
            objective = SensingObjective(sensing)
            assert objective.gram_form == (o == n)
            cases.append((objective, LoRAFactors(a=sensing.a_star, b=sensing.b_star)))
        regression = make_regression_instance(n, n + 1, seed)
        u = regression.y - regression.w_pt @ regression.s
        cases.append((RegressionObjective(regression),
                      LoRAFactors(a=regression.s[None, :], b=u[:, None])))
        for objective, f in cases:
            w_pt = objective.w_pt
            state = objective.evaluate(f)
            assert state.loss < 1e-20
            assert objective.loss(effective_weight(w_pt, f)) < 1e-20
            # G vanishes at the optimum: both sides are round-off of the residual's terms
            zero = Sides(np.zeros_like(f.a), np.zeros_like(f.b))
            assert_sides_close(state.sides, zero, objective, f, w_pt)

    def test_shape_rule_takes_the_gram_form_where_it_costs_no_more(self):
        # r (2mn + n^2) work per stage in Gram form, r (3mo + 2no) in residual
        # form; at m = n = 10 the two tie at o = 6
        for (m, n, o), gram in {(10, 10, 10): True, (10, 10, 6): True, (10, 10, 5): False,
                                (9, 8, 2): False, (12, 10, 8): True, (40, 40, 12): False}.items():
            assert sensing_case(m, n, o)[0].gram_form == gram


def test_logged_sensing_rk4_run_forms_no_r_st_and_k_once_per_objective():
    # Every O(m n o) product is an n x o or m x o matrix times S^T. At these
    # shapes the sides take the Gram form, which makes two, K = C0 S^T and
    # Q = S S^T, on an objective's first logged row and keeps both; R S^T,
    # one per row, and the dense grad would add more.
    m, n, o, k = 12, 10, 8, 5
    products = []

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(tuple(np.shape(x) for x in inputs))
            plain = [x.view(np.ndarray) if isinstance(x, Recording) else x for x in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    problem = make_sensing_instance(m, n, o, 2, 0.05, 0)
    start = perturbed_balanced_init(problem, 0.8, 0.05, 0)
    problem = dataclasses.replace(problem, s=problem.s.view(Recording))
    config = SolverConfig(Scheme.ODE_RK4, 0.1, k)
    first, second = SensingObjective(problem), SensingObjective(problem)
    for objective in (first, first, second):
        log = run_trajectory(start, objective, config)
        assert len(log.rows) == k + 1 and not log.diverged
    assert first.gram_form
    assert products and products.count(((m, o), (o, n))) == 2
    assert products.count(((n, o), (o, n))) == 2


def test_default_sensing_run_logs_null_space_ratios_in_range_down_to_the_floor():
    # eps_ratio reads B^T G and G A^T of the logged G itself, not the Gram-form
    # sides the row hands the next step: those carry round-off of the size of
    # G's parts K and B (A Q), which near the floor is far larger than G, and
    # the trace identity then leaves [0, 1] by far more than round-off.
    cfg = ExperimentConfig()
    log = Experiment(cfg).run([cfg])[0]
    assert not log.diverged and log.rows[-1].loss < 1e-20
    ratios = [row.eps_ratio for row in log.rows]
    assert None not in ratios
    assert all(-1e-12 <= x <= 1 + 1e-12 for x in ratios)

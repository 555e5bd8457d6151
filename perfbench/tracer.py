"""Spans around odelora's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules
(``core``, ``linalg``, ``problems``, ``solvers``, ``metrics``,
``diagnostics``, ``cli``) by a wrapper, under that name in every odelora
module that imported it, and wraps the objective classes' ``grad`` and
``loss`` and ``LoRAFactors.__post_init__`` (validation and copies of every
factor pair). ``uninstall`` puts the originals back. A span is
(name id, start ns, end ns, parent span index); spans stay in memory in one
flat int64 array and the per-layer figures are computed from it after the
traced call returns.
"""

from __future__ import annotations

import functools
import time
import types
from array import array

import numpy as np

import odelora
from odelora import cli, config, core, diagnostics, linalg, metrics, problems, solvers

LAYERS = {
    "core": core,
    "linalg": linalg,
    "problems": problems,
    "solvers": solvers,
    "metrics": metrics,
    "diagnostics": diagnostics,
    "cli": cli,
}
# Every module whose namespace may hold a reference to a layer function.
NAMESPACES = (odelora, *LAYERS.values(), config)
OBJECTIVES = (problems.SensingObjective, problems.QuadraticObjective, problems.RegressionObjective)
STEPS = frozenset(
    f"solvers.{name}"
    for name in (
        "ode_euler_step", "ode_rk2_step", "ode_rk4_step", "classical_gd_step",
        "riemannian_step", "lorapro_step", "full_ft_step",
    )
)


def grad_flops(objective, w) -> int:
    """Floating-point operations of one ``grad`` call, from the shapes alone."""
    m, n = np.shape(w)
    if isinstance(objective, problems.SensingObjective):
        o = objective.problem.s.shape[1]
        return 4 * m * n * o + m * o  # (W S - Y) S^T: two GEMMs and a subtraction
    if isinstance(objective, problems.RegressionObjective):
        return 4 * m * n  # W s, the outer product and its doubling
    return 2 * m * n  # mu (W - W*)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.flops = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count_flops: bool = False):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_flops:
                self.flops += grad_flops(*args[:2])
            idx = len(spans) >> 2
            spans.extend((nid, clock(), 0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[4 * idx + 2] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for short, module in LAYERS.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{short}.{attr}", fn)
                for namespace in NAMESPACES:
                    if getattr(namespace, attr, None) is fn:
                        self._patch(namespace, attr, traced)
        for cls in OBJECTIVES:
            for attr in ("grad", "loss"):
                traced = self._wrap(f"problems.{cls.__name__}.{attr}", cls.__dict__[attr],
                                    count_flops=attr == "grad")
                self._patch(cls, attr, traced)
        post_init = core.LoRAFactors.__dict__["__post_init__"]
        self._patch(core.LoRAFactors, "__post_init__", self._wrap("core.LoRAFactors", post_init))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def table(self) -> dict[str, np.ndarray]:
        """Per-span columns: name, duration, self time (ns) and parent name."""
        spans = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        name, start, end, parent = spans.T
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        return {"name": name, "dur": dur, "self": dur - child, "parent_name": parent_name}


def layer_metrics(tracer: Tracer, round_s: float) -> dict[str, float]:
    """The per-layer figures of one traced call that took ``round_s`` seconds."""
    t = tracer.table()
    names = tracer.names

    def mask(group) -> np.ndarray:
        return np.isin(t["name"], [i for i, n in enumerate(names) if n in group])

    def calls(group) -> int:
        return int(np.count_nonzero(mask(group)))

    def self_s(group) -> float:
        return float(t["self"][mask(group)].sum()) / 1e9

    def incl_s(group) -> float:
        return float(t["dur"][mask(group)].sum()) / 1e9

    field = {"core.field_eval"}
    chol = {"linalg.cholesky_solve"}
    grad = {n for n in names if n.startswith("problems.") and n.endswith(".grad")}
    loss = {n for n in names if n.startswith("problems.") and n.endswith(".loss")}
    instance = {n for n in names if n.startswith("problems.")} - grad - loss
    n_field = calls(field)
    n_steps = calls(STEPS)
    chol_in_field = int(np.count_nonzero(
        mask(chol) & (t["parent_name"] == names.index("core.field_eval"))
    ))
    step_us = t["dur"][mask(STEPS)] / 1e3
    out = {
        "core.field_eval.calls": n_field,
        "core.field_eval.self_s": self_s(field),
        "core.field_eval.us_per_call": incl_s(field) / n_field * 1e6 if n_field else 0.0,
        "core.field_eval.run_pct": 100.0 * incl_s(field) / round_s,
        "linalg.cholesky_solve.calls": calls(chol),
        "linalg.cholesky_solve.self_s": self_s(chol),
        "linalg.cholesky_solve.per_field_eval": chol_in_field / n_field if n_field else 0.0,
        "linalg.sylvester_spd.calls": calls({"linalg.sylvester_spd"}),
        "linalg.sylvester_spd.self_s": self_s({"linalg.sylvester_spd"}),
        "linalg.thin_svd.calls": calls({"linalg.thin_svd"}),
        "linalg.thin_svd.self_s": self_s({"linalg.thin_svd"}),
        "problems.instance.self_s": self_s(instance),
        "core.factors.calls": calls({"core.LoRAFactors"}),
        "core.factors.self_s": self_s({"core.LoRAFactors"}),
        "core.effective_weight.calls": calls({"core.effective_weight"}),
        "core.effective_weight.self_s": self_s({"core.effective_weight"}),
        "problems.grad.calls": calls(grad),
        "problems.grad.self_s": self_s(grad),
        "problems.grad.gflop": tracer.flops / 1e9,
        "problems.grad.run_pct": 100.0 * incl_s(grad) / round_s,
        "problems.loss.calls": calls(loss),
        "problems.loss.self_s": self_s(loss),
        "solvers.grads_per_step": calls(grad) / n_steps if n_steps else 0.0,
        "solvers.step.calls": n_steps,
        "solvers.step.self_s": self_s(STEPS),
        "solvers.step.us_p50": float(np.percentile(step_us, 50)) if n_steps else 0.0,
        "solvers.step.us_p90": float(np.percentile(step_us, 90)) if n_steps else 0.0,
        "solvers.run_trajectory.self_s": self_s({"solvers.run_trajectory"}),
        "metrics.eps_ratio.calls": calls({"metrics.eps_ratio"}),
        "metrics.eps_ratio.self_s": self_s({"metrics.eps_ratio"}),
        "metrics.eps_ratio.run_pct": 100.0 * incl_s({"metrics.eps_ratio"}) / round_s,
        "metrics.balance_defect.calls": calls({"metrics.balance_defect"}),
        "metrics.balance_defect.self_s": self_s({"metrics.balance_defect"}),
        "metrics.rate_fit.calls": calls({"metrics.rate_fit"}),
        "metrics.rate_fit.self_s": self_s({"metrics.rate_fit"}),
        "diagnostics.feature_scaling_experiment.self_s":
            self_s({"diagnostics.feature_scaling_experiment"}),
        "trace.spans": len(t["name"]),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s({n for n in names if n.startswith(layer + ".")})
    return out


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced set-up."""
    full = layer_metrics(tracer, 1.0)
    return {
        "setup.linalg.thin_svd.calls": full["linalg.thin_svd.calls"],
        "setup.linalg.thin_svd.self_s": full["linalg.thin_svd.self_s"],
        "setup.problems.instance.self_s": full["problems.instance.self_s"],
    }

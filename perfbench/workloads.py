"""The benchmark's three workloads and the checks on their outputs.

Each workload has the same five steps:

* ``build(seed)``: read the config and build the inputs handed to odelora
  (timed as set-up);
* ``reference(inputs)``: the benchmark's own computations that the checks
  compare against (untimed);
* ``call(inputs, out_dir)``: the timed call into odelora;
* ``check(ref, out_dir, result)``: one verdict per operation, ``None`` when
  the operation's output is right, else the reason it is wrong;
* ``warm_up(out_dir)``: a throwaway call on a tiny instance, so that lazy
  library loading is paid before anything is timed.

The checks use properties the method must have or values the benchmark
computes itself with numpy, never a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# odelora's functions are looked up on their modules at call time, so that
# the wrappers a traced run installs there are the ones called.
from odelora import Scheme, SolverConfig, cli, config, problems, solvers
from odelora.metrics import sensing_eps_certificate

HERE = Path(__file__).resolve().parent

# The sweep layout's scheme order, written out here rather than read from odelora.
SCHEME_ORDER = (
    "ode_euler", "ode_rk2", "ode_rk4", "classical_gd", "riemannian", "lora_pro", "full_ft",
)
FLOW_SCHEMES = ("ode_euler", "ode_rk2", "ode_rk4")
CONVERGED_LOSS = 1e-20
# Flow steps drift off the balanced manifold by O(h^(p+1)) per step only.
BALANCE_DEFECT_MAX = 1e-2
# Real-axis stability limit of classical RK4: h * curvature < 2.785.
RK4_STABILITY = 2.785
# Criterion 08a's bound on the flow's dimension-scaling slopes.
RK4_SLOPE_MAX = 0.25
GD_SLOPE_MAX = 1e-9
LOSS_RTOL = 1e-10


def _own_sensing_loss(problem, factors) -> float:
    """0.5 ||(W_pt + B0 A0) S - Y||_F^2, evaluated here with numpy."""
    resid = (problem.w_pt + factors.b @ factors.a) @ problem.s - problem.y
    return 0.5 * float(np.einsum("ij,ij->", resid, resid))


def _close(value: float, expected: float, rtol: float = LOSS_RTOL) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rtol * abs(expected)


def _read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class SweepSmall:
    """``odelora sweep --param h`` over all seven schemes on a small sensing instance."""

    name = "sweep-small"
    config_path: Path = HERE / "sweep_small.cfg"
    values: tuple[float, ...] = (0.1, 0.5, 2.2)
    builds = 5

    @property
    def operations(self) -> int:
        return len(SCHEME_ORDER) * len(self.values)

    def build(self, seed: int):
        cfg = config.parse_config(self.config_path.read_text())
        return replace(
            cfg,
            problem=replace(cfg.problem, seed=seed),
            init=replace(cfg.init, seed=seed),
        )

    def reference(self, cfg) -> dict:
        prob, init = cfg.problem, cfg.init
        problem = problems.make_sensing_instance(
            prob.m, prob.n, prob.o, prob.r, prob.delta, prob.seed
        )
        factors = problems.perturbed_balanced_init(
            problem, init.scale, init.perturbation, init.seed
        )
        return {"cfg": cfg, "loss0": _own_sensing_loss(problem, factors)}

    def call(self, cfg, out_dir: Path):
        return cli.cmd_sweep(cfg, "h", list(self.values), out_dir, jobs=1)

    def check(self, ref: dict, out_dir: Path, result) -> list[str | None]:
        expected = [(s, v) for s in SCHEME_ORDER for v in self.values]
        try:
            summary = _read_rows(out_dir / "summary.csv")
        except OSError as err:
            return [f"summary.csv unreadable: {err}"] * len(expected)
        got = [(row["scheme"], float(row["value"])) for row in summary]
        if result != 0 or got != expected:
            return [f"exit {result}; cells {got} != {expected}"] * len(expected)
        cfg = ref["cfg"]
        return [
            self._check_cell(cfg, ref["loss0"], row, out_dir / f"{row['scheme']}_{h:g}", h)
            for row, (_, h) in zip(summary, expected)
        ]

    @staticmethod
    def _check_cell(cfg, loss0: float, summary_row: dict, cell_dir: Path, h: float) -> str | None:
        scheme = summary_row["scheme"]
        try:
            rows = _read_rows(cell_dir / "trajectory.csv")
        except OSError as err:
            return f"{scheme} h={h:g}: {err}"
        losses = [float(row["loss"]) for row in rows]
        diverged = summary_row["diverged"] == "true"
        final = float(summary_row["final_loss"])
        contraction = float(summary_row["contraction"]) if summary_row["contraction"] else None
        curvature = 1.0 + cfg.problem.delta
        iterations = cfg.solver.iterations

        def fail(why: str) -> str:
            return f"{scheme} h={h:g}: {why}"

        if not _close(losses[0], loss0):
            return fail(f"iteration-0 loss {losses[0]!r} != own evaluation {loss0!r}")
        if [int(row["iter"]) for row in rows] != list(range(len(rows))):
            return fail("iterations are not numbered 0, 1, 2, ...")
        if not diverged and len(rows) != iterations + 1:
            return fail(f"{len(rows)} rows without divergence; expected {iterations + 1}")
        if final != losses[-1] and not (math.isnan(final) and math.isnan(losses[-1])):
            return fail(f"summary final loss {final!r} != last logged loss {losses[-1]!r}")
        if any(row["eps_ratio"] for row in rows):
            return fail("eps_ratio column written although the config disables it")
        converged = not diverged and final <= CONVERGED_LOSS
        if scheme in FLOW_SCHEMES and h * curvature < 2.0:
            if not converged or contraction is None or contraction >= 1.0:
                return fail(f"stable step did not converge linearly (final {final!r}, "
                            f"contraction {contraction!r})")
        if 2.0 < h * curvature < RK4_STABILITY:
            if scheme == "ode_rk4" and not converged:
                return fail(f"RK4 inside its stability range ended at {final!r}")
            if scheme == "ode_euler" and converged:
                return fail(f"Euler past its stability limit converged to {final!r}")
        if scheme == "full_ft" and abs(1.0 - h * curvature) > 1.0 and not diverged:
            return fail("full-weight descent past its stability limit did not diverge")
        if scheme in FLOW_SCHEMES and h <= 0.5:
            defect = max(float(row["balance_defect"]) for row in rows)
            if not defect <= BALANCE_DEFECT_MAX:
                return fail(f"balance defect reached {defect!r}")
        return None

    def warm_up(self, out_dir: Path) -> None:
        cfg = self.build(0)
        tiny = replace(
            cfg,
            problem=replace(cfg.problem, m=8, n=8, o=8, r=2),
            solver=replace(cfg.solver, iterations=3),
        )
        cli.cmd_sweep(tiny, "h", [0.1], out_dir, jobs=1)


@dataclass(frozen=True)
class SensingLarge:
    """One logged RK4 trajectory on a certified 1024-wide sensing instance."""

    name = "sensing-large"
    size: int = 1024
    rank: int = 8
    delta: float = 0.05
    scale: float = 0.8
    perturbation: float = 0.05
    h: float = 0.5
    iterations: int = 12
    builds = 3
    operations = 1

    def build(self, seed: int):
        problem = problems.make_sensing_instance(
            self.size, self.size, self.size, self.rank, self.delta, seed
        )
        factors = problems.perturbed_balanced_init(problem, self.scale, self.perturbation, seed)
        solver = SolverConfig(Scheme.ODE_RK4, self.h, self.iterations)
        return problem, factors, problems.sensing_objective(problem), solver

    def reference(self, inputs) -> dict:
        problem, factors, _, _ = inputs
        sigma = np.linalg.svd(problem.s, compute_uv=False)
        lo, hi = math.sqrt(1.0 - self.delta), math.sqrt(1.0 + self.delta)
        slack = 1e-12
        bad = []
        if not (sigma.min() >= lo - slack and sigma.max() <= hi + slack):
            bad.append(f"singular values of S span [{sigma.min()!r}, {sigma.max()!r}], "
                       f"outside [{lo!r}, {hi!r}]")
        certificate = sensing_eps_certificate(problem, factors)
        if not certificate < 1.0:
            bad.append(f"initialization certificate {certificate!r} is not below 1")
        return {"loss0": _own_sensing_loss(problem, factors), "input_faults": bad}

    def call(self, inputs, out_dir: Path):
        problem, factors, objective, solver = inputs
        return solvers.run_trajectory(factors, objective, solver, w_pt=problem.w_pt)

    def check(self, ref: dict, out_dir: Path, log) -> list[str | None]:
        if ref["input_faults"]:
            return ["; ".join(ref["input_faults"])]
        losses = log.losses()
        if log.diverged:
            return ["trajectory diverged"]
        if len(losses) != self.iterations + 1:
            return [f"{len(losses)} rows; expected {self.iterations + 1}"]
        if not _close(float(losses[0]), ref["loss0"]):
            return [f"iteration-0 loss {losses[0]!r} != own evaluation {ref['loss0']!r}"]
        ratios = losses[1:] / losses[:-1]
        if not np.all(ratios < 1.0):
            return [f"loss rose at iterations {np.flatnonzero(~(ratios < 1.0)) + 1}"]
        if not losses[-1] <= 1e-3 * losses[0]:
            return [f"loss fell only from {losses[0]!r} to {losses[-1]!r}"]
        return [None]

    def warm_up(self, out_dir: Path) -> None:
        tiny = replace(self, size=16, rank=2, iterations=3)
        tiny.call(tiny.build(0), out_dir)


@dataclass(frozen=True)
class FeatureScaling:
    """``odelora feature-scaling`` with its default dimensions, seeds, steps and h."""

    name = "feature-scaling"
    n_list: tuple[int, ...] = (64, 128, 256, 512, 1024)
    seeds: int = 5
    steps: int = 20
    h: float = 0.1
    builds = 5
    operations = 1

    def build(self, seed: int):
        return list(range(self.seeds * seed, self.seeds * (seed + 1)))

    def reference(self, seeds) -> dict:
        return {"seeds": seeds}

    def call(self, seeds, out_dir: Path):
        return cli.cmd_feature_scaling(out_dir, list(self.n_list), seeds, self.steps, self.h)

    def check(self, ref: dict, out_dir: Path, result) -> list[str | None]:
        try:
            phi = _read_rows(out_dir / "phi.csv")
            slopes = _read_rows(out_dir / "slopes.csv")
        except OSError as err:
            return [f"output unreadable: {err}"]
        return [self._check_outputs(ref["seeds"], phi, slopes, result)]

    def _check_outputs(self, seeds, phi, slopes, result) -> str | None:
        if result != 0:
            return f"exit {result}"
        components = {"ode_rk4": 8, "classical_gd": 2}
        expected_rows = len(self.n_list) * len(seeds) * self.steps * sum(components.values())
        if len(phi) != expected_rows:
            return f"phi.csv has {len(phi)} rows; expected {expected_rows}"
        norms = np.array([float(row["norm"]) for row in phi])
        if not (np.all(np.isfinite(norms)) and np.all(norms >= 0.0)):
            return "phi.csv holds a negative or non-finite norm"
        series: dict[tuple[str, int], dict[int, list[float]]] = {}
        for row, norm in zip(phi, norms):
            scheme, n, comp = row["scheme"], int(row["n"]), int(row["component"])
            series.setdefault((scheme, comp), {}).setdefault(n, []).append(norm)
            if row["step"] != "0":
                continue
            if scheme == "classical_gd":
                # B = 0, ||W_pt s - y|| = 1 and ||A s||^2 = r * 0.5^2 = 1: (2h, 0) exactly.
                want = 2.0 * self.h if comp == 0 else 0.0
                if abs(norm - want) > 1e-14 * max(want, 1.0):
                    return f"factor descent step 0 at n={n} seed={row['seed']}: " \
                           f"component {comp} is {norm!r}, not {want!r}"
            elif comp % 2 == 1 and norm != 0.0:
                return f"RK4 carry-side component {comp} at step 0, n={n} is {norm!r}, not 0"
        if sorted(series) != sorted((s, c) for s, k in components.items() for c in range(k)):
            return f"phi.csv components {sorted(series)} are not RK4 0-7 and factor descent 0-1"
        logn = np.log(np.array(self.n_list, dtype=float))
        fitted = {(row["scheme"], int(row["component"])): row["slope"] for row in slopes}
        for (scheme, comp), by_n in series.items():
            medians = [float(np.median(by_n[n])) for n in self.n_list]
            own = float(np.polyfit(logn, np.log(medians), 1)[0])
            written = fitted.get((scheme, comp), "")
            if not written:
                return f"{scheme} component {comp}: no slope written"
            bound = RK4_SLOPE_MAX if scheme == "ode_rk4" else GD_SLOPE_MAX
            if not abs(float(written)) <= bound:
                return f"{scheme} component {comp}: |slope| {written} exceeds {bound!r}"
            if abs(float(written) - own) > 1e-9:
                return f"{scheme} component {comp}: slope {written} != own fit {own!r}"
        return None

    def warm_up(self, out_dir: Path) -> None:
        tiny = replace(self, n_list=(8, 16), seeds=1, steps=2)
        tiny.call(tiny.build(0), out_dir)


WORKLOADS = {w.name: w for w in (SweepSmall(), SensingLarge(), FeatureScaling())}

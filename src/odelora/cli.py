"""Experiment runner CLI.

Verbs:

* ``run``             one trajectory from a config, CSV + meta + plot script
* ``sweep``           grid over one parameter x all seven solver schemes
* ``order``           discretization-order measurement for the flow steppers
* ``feature-scaling`` output-contribution norms across model dimensions

All randomness flows from the config seeds through numpy's PCG64 generator,
so identical invocations produce byte-identical CSVs except for the
``wall_nanos`` column. Floats are written with 17 significant digits and a
``.`` decimal point regardless of locale; missing diagnostics are emitted
as empty fields. Exit codes: 0 completed (divergence is data, not failure),
2 configuration error, 3 I/O error. ``order`` also exits 2, writing
nothing, when its config's problem and start admit no measurement: the
reference run diverges, or a terminal defect sits at round-off.
``feature-scaling`` exits 2, writing nothing, when a scheme diverges.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import operator
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    OutOfRange,
    parse_config,
    parse_value,
    serialize_config,
    set_value,
)
from .core import LoRAFactors
from .diagnostics import (
    FEATURE_SCALING_RANK,
    DefectBelowNoiseFloor,
    ReferenceDiverged,
    ScalingDiverged,
    estimate_order,
    feature_scaling_experiment,
)
from .metrics import WindowTooShort, rate_fit, sensing_eps_certificate
from .problems import (
    _unit_balanced_truth,
    aligned_zero_b_init,
    make_regression_instance,
    make_sensing_instance,
    perturbed_balanced_init,
    perturbed_target_init,
    quadratic_objective,
    regression_objective,
    sensing_objective,
    zero_b_init,
)
from .solvers import Scheme, TrajectoryLog, TrajectoryRow, run_stack

__all__ = ["main", "cmd_run", "cmd_sweep", "cmd_order", "cmd_feature_scaling"]

ORDER_H_LIST = (0.2, 0.1, 0.05, 0.025)
ORDER_HORIZON = 1.0
# The config key each sweep axis sets.
SWEEP_KEYS = {"h": "solver.h", "delta": "problem.delta"}
TRAJECTORY_HEADER = ",".join(field.name for field in dataclasses.fields(TrajectoryRow))
# A row's values in header order; dataclasses.astuple would deep-copy each.
_row_values = operator.attrgetter(*TRAJECTORY_HEADER.split(","))


# A cell's %-format by its kind: missing, bool, float or float64, anything
# else. '%.0s' takes a cell and writes nothing of it, and '%.17g' % x is
# format(x, '.17g'), nan, inf, -0.0 and subnormals included.
_CELL_FORMATS = ("%.0s", "%s", "%.17g", "%s")
_KINDS = {type(None): 0, bool: 1, float: 2, np.float64: 2, int: 3, str: 3}


@functools.lru_cache(maxsize=128)
def _row_format(kinds: bytes) -> str:
    """The %-format of a CSV row whose cells are of ``kinds``."""
    return ",".join(_CELL_FORMATS[kind] for kind in kinds)


def _fmt_row(row) -> str:
    """One CSV line of the cells ``row`` through one %-format: empty for
    missing, ``true``/``false`` for bools, 17 significant digits for floats
    and float64, and ``str`` otherwise. The kinds are a ``bytes`` key, not
    a tuple, so a row allocates no object that the cyclic collector tracks:
    one more tuple per row shifted its passes and raised a sweep's peak
    resident memory by about 0.6 MB."""
    row = tuple(row)
    try:
        kinds = bytes(map(_KINDS.__getitem__, map(type, row)))
    except KeyError:  # a type outside _KINDS
        kinds = bytes(0 if cell is None else 1 if isinstance(cell, bool)
                      else 2 if isinstance(cell, float) else 3 for cell in row)
    if 1 in kinds:
        row = tuple(str(cell).lower() if kind == 1 else cell for cell, kind in zip(row, kinds))
    return _row_format(kinds) % row


def _fmt(value) -> str:
    """CSV cell: empty for missing, 17 significant digits for floats and float64."""
    return _fmt_row((value,))


def _write_table(path: Path, header: str, rows) -> None:
    """Write ``header`` and one CSV line per row, a tuple of cells (``_fmt_row``)."""
    lines = [header, *map(_fmt_row, rows)]
    path.write_text("\n".join(lines) + "\n")


class Experiment:
    """A resolved problem and start: the objective, which holds the frozen
    base weight, and the initial state.

    Only the config's ``problem`` and ``init`` sections are read to build
    it, so one experiment serves every config that shares them; ``run``
    takes the solver and diagnostics from the config it is given.
    """

    def __init__(self, cfg: ExperimentConfig):
        prob = cfg.problem
        self.sensing = None
        self.regression = None
        if prob.kind == "sensing":
            self.sensing = make_sensing_instance(
                prob.m, prob.n, prob.o, prob.r, prob.delta, prob.seed
            )
            self.objective = sensing_objective(self.sensing)
        elif prob.kind == "quadratic":
            rng = np.random.default_rng(prob.seed)
            w_pt = rng.standard_normal((prob.m, prob.n)) / np.sqrt(prob.n)
            star = _unit_balanced_truth(rng, prob.m, prob.n, prob.r)
            self.objective = quadratic_objective(w_pt + star.b @ star.a, mu=1.0, w_pt=w_pt)
        elif prob.kind == "regression":
            self.regression = make_regression_instance(prob.n, prob.m, prob.seed)
            self.objective = regression_objective(self.regression)
        else:  # pragma: no cover - guarded by config validation
            raise OutOfRange("problem.kind", prob.kind)
        self.factors = self._initial_factors(prob, cfg.init)

    def _initial_factors(self, prob, init) -> LoRAFactors:
        if init.scheme == "zero_b":
            if self.regression is not None:
                return aligned_zero_b_init(self.regression.s, prob.m, prob.r, init.seed)
            return zero_b_init(prob.n, prob.m, prob.r, init.seed)
        if self.sensing is not None:
            return perturbed_balanced_init(self.sensing, init.scale, init.perturbation, init.seed)
        if self.objective.optimum_w is not None:
            target = self.objective.optimum_w - self.objective.w_pt
        else:
            # A random unit target, drawn apart from the perturbation's stream.
            rng = np.random.default_rng(np.random.SeedSequence([init.seed, 1]))
            target = rng.standard_normal((prob.m, prob.n))
            target *= 1.0 / np.linalg.norm(target)
        return perturbed_target_init(target, prob.r, init.scale, init.perturbation, init.seed)

    def run(self, cfgs) -> list[TrajectoryLog]:
        """One trajectory per config, run as one stack; the configs differ
        at most in ``solver.scheme`` and ``solver.h``, ``full_ft`` shares no
        stack with a factor scheme, and the first one's diagnostics are
        read."""
        return run_stack(
            self.factors,
            self.objective,
            [cfg.solver for cfg in cfgs],
            log_eps_ratio=cfgs[0].diagnostics.eps_ratio,
            log_balance=cfgs[0].diagnostics.balance,
        )

    @functools.cached_property
    def certificate(self) -> float | None:
        """The sensing start's initialization certificate, computed on first
        read and kept for every run of this experiment; None off sensing."""
        if self.sensing is None:
            return None
        return sensing_eps_certificate(self.sensing, self.factors)


_PLOT_SCRIPT = """\
# gnuplot script: loss trajectory
set datafile separator ','
set logscale y
set xlabel 'iteration'
set ylabel 'loss'
set key left bottom
plot 'trajectory.csv' every ::1 using 1:2 with lines title '{label}'
"""


def _write_run(cfg: ExperimentConfig, experiment: Experiment, log: TrajectoryLog,
               out_dir: Path) -> None:
    """Write the ``run`` outputs of ``cfg``'s trajectory ``log`` into ``out_dir``;
    ``experiment`` was built from ``cfg``'s problem and start."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / "trajectory.csv", TRAJECTORY_HEADER, map(_row_values, log.rows))
    meta = [serialize_config(cfg).rstrip("\n"), ""]
    meta.append(f"final_loss = {_fmt(log.final_loss)}")
    meta.append(f"diverged = {_fmt(log.diverged)}")
    cert = experiment.certificate if cfg.diagnostics.certificate else None
    if cert is not None:
        meta.append(f"eps_certificate = {_fmt(cert)}")
    (out_dir / "meta.txt").write_text("\n".join(meta) + "\n")
    (out_dir / "plot.gnuplot").write_text(_PLOT_SCRIPT.format(label=cfg.output.run_label))


def cmd_run(cfg: ExperimentConfig, out_dir: Path) -> int:
    experiment = Experiment(cfg)
    _write_run(cfg, experiment, experiment.run([cfg])[0], out_dir)
    return 0


def _contraction_of(log: TrajectoryLog, optimum_loss: float | None) -> float | None:
    if optimum_loss is None or log.diverged:
        return None
    try:
        return rate_fit(log.losses(), optimum_loss).contraction
    except WindowTooShort:
        return None


def cmd_sweep(cfg: ExperimentConfig, param: str, values, out_dir: Path, *, jobs: int = 1) -> int:
    """One subdirectory ``{scheme}_{value:g}`` per (scheme x value) cell, plus summary.csv.

    Every value is checked by the parser of the swept config key (text or
    numbers), and no two may name the same cell, before any cell runs.
    One experiment is built per distinct problem and start, and every cell
    that shares them runs from it: one for an ``h`` sweep, one per value
    for a ``delta`` sweep. Each experiment runs its cells as two stacks
    (``solvers.run_stack``): every factor scheme's cells as one, and the
    ``full_ft`` cells as the other. The stacks run one after another, and
    summary.csv lists the cells scheme-major, then by value. ``jobs`` has
    no effect; ROADMAP item 1 drops it, together with the benchmark's
    ``jobs=1``.
    """
    if param not in SWEEP_KEYS:
        raise OutOfRange("sweep.param", f"must be one of {tuple(SWEEP_KEYS)}, got {param!r}")
    key = SWEEP_KEYS[param]
    values = [parse_value(key, value) for value in values]
    if len({f"{value:g}" for value in values}) < len(values):
        raise OutOfRange("sweep.values", f"two values share a cell directory, got {values}")
    cells = [(scheme, value, set_value(set_value(cfg, "solver.scheme", scheme), key, value))
             for scheme in Scheme for value in values]
    experiments, stacks = {}, {}
    for scheme, value, cell_cfg in cells:  # the first scheme builds them in value order
        pair = (cell_cfg.problem, cell_cfg.init)
        if pair not in experiments:
            experiments[pair] = Experiment(cell_cfg)
        stacks.setdefault((pair, scheme is Scheme.FULL_FT), []).append((scheme, value, cell_cfg))
    logs = {}
    for (pair, _), stack in stacks.items():
        ran = experiments[pair].run([cell_cfg for _, _, cell_cfg in stack])
        logs.update(((scheme, value), log) for (scheme, value, _), log in zip(stack, ran))

    summary = []
    for scheme, value, cell_cfg in cells:
        experiment, log = experiments[(cell_cfg.problem, cell_cfg.init)], logs[scheme, value]
        _write_run(cell_cfg, experiment, log, out_dir / f"{scheme.value}_{value:g}")
        contraction = _contraction_of(log, experiment.objective.optimum_loss)
        summary.append((scheme.value, value, log.final_loss, log.diverged, contraction))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / "summary.csv", "scheme,value,final_loss,diverged,contraction", summary)
    return 0


def cmd_order(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Measure observed orders for the three flow steppers on one problem."""
    experiment = Experiment(cfg)
    reports = estimate_order(
        experiment.factors,
        experiment.objective,
        ORDER_HORIZON,
        ORDER_H_LIST,
        cfg.solver.eps_reg,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / "order.csv", "scheme,h,defect,observed_order",
                 [(scheme.value, h, defect, report.observed_order)
                  for scheme, report in reports.items()
                  for h, defect in zip(report.step_sizes, report.defects)])
    return 0


def cmd_feature_scaling(out_dir: Path, n_list, seeds: int, steps: int, h: float) -> int:
    """Dimension-scaling sweep for the RK4 flow and plain factor descent,
    from one instance per ``(n, seed)``; each CSV lists RK4's rows first.

    ``seeds`` is a count or a list of seeds. Raises OutOfRange, before
    writing anything, unless the dimensions are distinct and at least the
    rank, there is a seed and a step, and h is positive and finite. Raises
    ScalingDiverged, with nothing written, when either scheme blows up.
    """
    if len(n_list) == 0 or min(n_list) < FEATURE_SCALING_RANK or len(set(n_list)) < len(n_list):
        raise OutOfRange("feature-scaling.n_list",
                         f"needs distinct dimensions of at least the rank "
                         f"{FEATURE_SCALING_RANK}, got {list(n_list)}")
    if (seeds if isinstance(seeds, int) else len(seeds)) < 1:
        raise OutOfRange("feature-scaling.seeds", f"needs at least one seed, got {seeds}")
    if steps < 1:
        raise OutOfRange("feature-scaling.steps", f"must be at least 1, got {steps}")
    if not 0 < h < np.inf:
        raise OutOfRange("feature-scaling.h", f"must be positive and finite, got {h}")
    phi, slopes = [], []
    for scheme, result in feature_scaling_experiment(n_list, steps, h, seeds).items():
        phi += [(scheme.value, *row) for row in result.rows]
        if len(n_list) < 2:
            slopes.append((f"# warning: {len(n_list)} dimension(s); need >= 2 to fit slopes",))
            continue
        slopes += [(scheme.value, comp, result.slopes[comp]) for comp in sorted(result.slopes)]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / "phi.csv", "scheme,n,seed,step,component,norm", phi)
    _write_table(out_dir / "slopes.csv", "scheme,component,slope", slopes)
    return 0


def _load_config(path: str | None, seed: int | None) -> ExperimentConfig:
    text = Path(path).read_text() if path else ""
    cfg = parse_config(text)
    if seed is not None:
        for key in ("problem.seed", "init.seed"):
            cfg = set_value(cfg, key, parse_value(key, seed))
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="odelora", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file path (omit for all defaults)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seeds")

    run_p = sub.add_parser("run", help="run one trajectory")
    common(run_p)

    sweep_p = sub.add_parser("sweep", help="sweep one parameter over all schemes")
    common(sweep_p)
    sweep_p.add_argument("--param", required=True, choices=tuple(SWEEP_KEYS))
    sweep_p.add_argument("--values", required=True, help="comma-separated values")

    order_p = sub.add_parser("order", help="measure discretization orders")
    common(order_p)

    fs_p = sub.add_parser("feature-scaling", help="dimension-scaling experiment")
    fs_p.add_argument("--out", required=True)
    fs_p.add_argument("--n-list", default="64,128,256,512,1024")
    fs_p.add_argument("--seeds", type=int, default=5)
    fs_p.add_argument("--steps", type=int, default=20)
    fs_p.add_argument("--h", type=float, default=0.1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "feature-scaling":
            try:
                n_list = [int(v) for v in args.n_list.split(",") if v.strip()]
            except ValueError:
                raise OutOfRange("feature-scaling.n_list",
                                 f"needs integer dimensions, got {args.n_list!r}") from None
            return cmd_feature_scaling(
                Path(args.out), n_list, args.seeds, args.steps, args.h
            )
        cfg = _load_config(args.config, args.seed)
        if args.command == "run":
            return cmd_run(cfg, Path(args.out))
        if args.command == "sweep":
            values = [v for v in args.values.split(",") if v.strip()]
            if not values:
                raise OutOfRange("sweep.values", "no values given")
            return cmd_sweep(cfg, args.param, values, Path(args.out))
        if args.command == "order":
            return cmd_order(cfg, Path(args.out))
        raise AssertionError(args.command)  # pragma: no cover
    except (ConfigError, DefectBelowNoiseFloor, ReferenceDiverged, ScalingDiverged) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

import csv
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odelora.cli import (Experiment, _write_table, cmd_feature_scaling, cmd_order, cmd_run,
                         cmd_sweep, main)
from odelora.config import (
    ExperimentConfig,
    OutOfRange,
    ParseError,
    UnknownKey,
    parse_config,
    serialize_config,
)
from odelora.metrics import rate_fit
from odelora.solvers import Scheme


class TestParseConfig:
    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.problem.kind == "sensing"
        assert (cfg.problem.m, cfg.problem.n, cfg.problem.o, cfg.problem.r) == (40, 40, 40, 4)
        assert cfg.problem.delta == 0.05
        assert cfg.problem.seed == 0
        assert cfg.solver.scheme is Scheme.ODE_RK4
        assert cfg.solver.step_size == 0.1
        assert cfg.solver.iterations == 500
        assert cfg.solver.eps_reg == 1e-8
        assert cfg.init.scheme == "balanced"

    def test_sections_and_comments_parse(self):
        text = """
# experiment
[problem]
kind = quadratic
m = 12
n = 10
r = 2

[solver]
scheme = ode_euler
h = 0.25
iterations = 50
"""
        cfg = parse_config(text)
        assert cfg.problem.kind == "quadratic"
        assert cfg.problem.m == 12 and cfg.problem.n == 10
        assert cfg.solver.scheme is Scheme.ODE_EULER
        assert cfg.solver.step_size == 0.25
        assert cfg.solver.iterations == 50

    def test_out_of_range_delta_names_field(self):
        with pytest.raises(OutOfRange) as err:
            parse_config("[problem]\ndelta = 1.5\n")
        assert "delta" in str(err.value)

    def test_unknown_key_rejected(self):
        for text, name in (
            ("[problem]\ngamma = 3\n", "gamma"),
            ("[output]\ndirectory = out\n", "directory"),
        ):
            with pytest.raises(UnknownKey) as err:
                parse_config(text)
            assert name in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(UnknownKey):
            parse_config("[misc]\nx = 1\n")

    def test_parse_error_has_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_config("[problem]\nkind sensing\n")
        assert err.value.line == 2

    def test_bad_scheme_rejected(self):
        with pytest.raises(OutOfRange):
            parse_config("[solver]\nscheme = adamw\n")

    def test_rank_consistency_checked(self):
        with pytest.raises(OutOfRange):
            parse_config("[problem]\nm = 4\nn = 4\nr = 6\n")

    def test_round_trip(self):
        text = """
[problem]
kind = sensing
m = 16
n = 18
o = 18
r = 3
delta = 0.1
seed = 7

[solver]
scheme = ode_rk2
h = 0.2
iterations = 33

[diagnostics]
certificate = false
"""
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_of_defaults(self):
        cfg = ExperimentConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_serialized_defaults(self):
        assert serialize_config(ExperimentConfig()) == (
            "[problem]\nkind = sensing\nm = 40\nn = 40\no = 40\nr = 4\ndelta = 0.05\nseed = 0\n\n"
            "[init]\nscheme = balanced\nscale = 0.8\nperturbation = 0.05\nseed = 0\n\n"
            "[solver]\nscheme = ode_rk4\nh = 0.1\niterations = 500\neps_reg = 1e-08\n\n"
            "[diagnostics]\neps_ratio = true\nbalance = true\ncertificate = true\n\n"
            "[output]\nrun_label = run\n"
        )


def _expect(**sections) -> ExperimentConfig:
    """The default config with some fields of some sections changed."""
    cfg = ExperimentConfig()
    return replace(
        cfg, **{name: replace(getattr(cfg, name), **fields) for name, fields in sections.items()}
    )


SWEEP_SMALL = (Path(__file__).parents[1] / "perfbench" / "sweep_small.cfg").read_text()

# (config text, expected config or (exception class, its .name or, for
# ParseError, its .line))
CORPUS = [
    ("", ExperimentConfig()),
    ("[problem]\nkind = quadratic\nm = 12\nn = 10\nr = 2\n"
     "[solver]\nscheme = ode_euler\nh = 0.25\niterations = 50\n",
     _expect(problem=dict(kind="quadratic", m=12, n=10, o=10, r=2),
             solver=dict(scheme=Scheme.ODE_EULER, step_size=0.25, iterations=50))),
    ("[problem]\ndelta = 1.5\n", (OutOfRange, "problem.delta")),
    ("[problem]\ndelta = -0.1\n", (OutOfRange, "problem.delta")),
    ("[problem]\ndelta = x\n", (OutOfRange, "problem.delta")),
    ("[problem]\nm = 0\n", (OutOfRange, "problem.m")),
    ("[problem]\nn = 2.5\n", (OutOfRange, "problem.n")),
    ("[problem]\nkind = dense\n", (OutOfRange, "problem.kind")),
    ("[problem]\ngamma = 3\n", (UnknownKey, "problem.gamma")),
    ("[output]\ndirectory = out\n", (UnknownKey, "output.directory")),
    ("[misc]\nx = 1\n", (UnknownKey, "[misc]")),
    ("[problem]\nkind sensing\n", (ParseError, 2)),
    ("[problem]\nm = 1\nm = 2\n", (ParseError, 3)),
    ("[problem]\n[problem]\n", (ParseError, 2)),
    ("[problem]\nm = 4\nn = 4\nr = 6\n", (OutOfRange, "problem.r")),
    ("[problem]\nn = 10\no = 12\n", (OutOfRange, "problem.o")),
    ("[problem]\nn = 24\nm = 30\n", _expect(problem=dict(m=30, n=24, o=24))),
    ("[problem]\nn = 24\no = 8\n", _expect(problem=dict(n=24, o=8))),
    ("[init]\nscheme = lora\n", (OutOfRange, "init.scheme")),
    ("[init]\nscale = -1\n", (OutOfRange, "init.scale")),
    ("[init]\nperturbation = -0.5\n", (OutOfRange, "init.perturbation")),
    ("[init]\nseed = abc\n", (OutOfRange, "init.seed")),
    ("[solver]\nscheme = adamw\n", (OutOfRange, "solver.scheme")),
    ("[solver]\nh = 0\n", (OutOfRange, "solver.h")),
    ("[solver]\nh = nan\n", (OutOfRange, "solver.h")),
    ("[solver]\niterations = -1\n", (OutOfRange, "solver.iterations")),
    ("[solver]\neps_reg = -1e-3\n", (OutOfRange, "solver.eps_reg")),
    ("[diagnostics]\nbalance = maybe\n", (OutOfRange, "diagnostics.balance")),
    ("[diagnostics]\neps_ratio = off\nbalance = No\ncertificate = 1\n",
     _expect(diagnostics=dict(eps_ratio=False, balance=False))),
    ("[output]\nrun_label = my label\n", _expect(output=dict(run_label="my label"))),
    (SWEEP_SMALL, _expect(diagnostics=dict(eps_ratio=False))),
    ("[problem]\nseed = -1\n", (OutOfRange, "problem.seed")),
    ("[init]\nseed = -2\n", (OutOfRange, "init.seed")),
    ("[solver]\nh = inf\n", (OutOfRange, "solver.h")),
    ("[solver]\neps_reg = inf\n", (OutOfRange, "solver.eps_reg")),
    ("[init]\nscale = inf\n", (OutOfRange, "init.scale")),
    ("[init]\nperturbation = -inf\n", (OutOfRange, "init.perturbation")),
]


@pytest.mark.parametrize(
    "text, expected",
    CORPUS,
    ids=[f"{i:02d}-" + ("ok" if isinstance(e, ExperimentConfig) else e[0].__name__)
         for i, (_, e) in enumerate(CORPUS)],
)
def test_config_corpus(text, expected):
    if isinstance(expected, ExperimentConfig):
        cfg = parse_config(text)
        assert cfg == expected
        assert parse_config(serialize_config(cfg)) == cfg
        return
    cls, where = expected
    with pytest.raises(cls) as err:
        parse_config(text)
    assert type(err.value) is cls
    assert (err.value.line if cls is ParseError else err.value.name) == where


def _small_config(**solver_kwargs) -> ExperimentConfig:
    cfg = parse_config(
        "[problem]\nm = 12\nn = 12\no = 12\nr = 2\n\n[solver]\niterations = 40\n"
    )
    if solver_kwargs:
        cfg = replace(cfg, solver=replace(cfg.solver, **solver_kwargs))
    return cfg


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _strip_wall(text: str) -> str:
    lines = text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def test_table_cells_keep_their_text(tmp_path):
    # a row is formatted through one cached %-format; each cell reads as it
    # did through format(x, ".17g"), str(bool).lower() and str
    floats = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1.7976931348623157e308,
              0.1, np.float64(1 / 3), np.float64("nan")]
    rows = [(*floats, 7, np.int64(-3), True, False, None, "ode_rk4"),
            (None, True, 1.5, 0), (False, None, 2, 0.0), (1, 1.0, True)]
    _write_table(tmp_path / "t.csv", "header", rows)
    want = ["header",
            ",".join([*(format(x, ".17g") for x in floats), "7", "-3", "true", "false", "",
                      "ode_rk4"]),
            ",true,1.5,0", "false,,2,0", "1,1,true"]
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"
    assert want[1].startswith("nan,inf,-inf,-0,4.9406564584124654e-324,1.7976931348623157e+308,")


class TestCmdRun:
    def test_zero_iterations_gives_two_csv_lines(self, tmp_path):
        cfg = _small_config(iterations=0)
        assert cmd_run(cfg, tmp_path) == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "iter,loss,grad_norm,balance_defect,eps_ratio,dist_to_opt,wall_nanos"

    def test_outputs_present(self, tmp_path):
        cfg = _small_config()
        cmd_run(cfg, tmp_path)
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "plot.gnuplot").exists()
        meta = (tmp_path / "meta.txt").read_text()
        assert "final_loss" in meta and "eps_certificate" in meta

    def test_determinism_modulo_wall_nanos(self, tmp_path):
        cfg = _small_config()
        cmd_run(cfg, tmp_path / "a")
        cmd_run(cfg, tmp_path / "b")
        text_a = (tmp_path / "a" / "trajectory.csv").read_text()
        text_b = (tmp_path / "b" / "trajectory.csv").read_text()
        assert _strip_wall(text_a) == _strip_wall(text_b)

    def test_default_config_rk4_converges(self, tmp_path):
        cmd_run(parse_config(""), tmp_path)
        final_loss = float(
            (tmp_path / "trajectory.csv").read_text().strip().splitlines()[-1].split(",")[1]
        )
        assert final_loss < 1e-8

    def test_disabled_diagnostics_emit_empty_fields(self, tmp_path, monkeypatch):
        import odelora.solvers as solvers_mod

        calls = []
        for name in ("_null_space_ratios", "balance_defect"):
            monkeypatch.setattr(solvers_mod, name, lambda *a, name=name: calls.append(name))
        cfg = parse_config("[diagnostics]\neps_ratio = false\nbalance = false\n")
        cfg = replace(cfg, solver=replace(cfg.solver, iterations=1))
        cmd_run(cfg, tmp_path)
        assert calls == []  # skipped, not computed and blanked
        rows = _read_csv(tmp_path / "trajectory.csv")
        header = rows[0]
        bal_idx = header.index("balance_defect")
        ratio_idx = header.index("eps_ratio")
        assert rows[1][bal_idx] == "" and rows[1][ratio_idx] == ""


class TestCmdSweep:
    def test_layout_and_summary(self, tmp_path):
        cfg = _small_config()
        assert cmd_sweep(cfg, "h", [0.1], tmp_path) == 0
        cells = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert cells == sorted(f"{s.value}_0.1" for s in Scheme)
        rows = _read_csv(tmp_path / "summary.csv")
        assert rows[0] == ["scheme", "value", "final_loss", "diverged", "contraction"]
        assert len(rows) == 1 + len(Scheme)

    def test_summary_contraction_matches_trajectory_refit(self, tmp_path):
        cfg = _small_config(iterations=120)
        cmd_sweep(cfg, "h", [0.1], tmp_path)
        rows = _read_csv(tmp_path / "summary.csv")
        for row in rows[1:]:
            scheme, value, final_loss, diverged, contraction = row
            if contraction == "":
                continue
            traj = _read_csv(tmp_path / f"{scheme}_{float(value):g}" / "trajectory.csv")
            losses = np.array([float(r[1]) for r in traj[1:]])
            refit = rate_fit(losses, 0.0).contraction
            assert float(contraction) == pytest.approx(refit, rel=1e-12)

    def test_cell_identical_to_cmd_run(self, tmp_path):
        cfg = _small_config()
        cmd_run(cfg, tmp_path / "solo")
        cmd_sweep(cfg, "h", [cfg.solver.step_size], tmp_path / "grid")
        cell = tmp_path / "grid" / f"{cfg.solver.scheme.value}_{cfg.solver.step_size:g}"
        solo = _strip_wall((tmp_path / "solo" / "trajectory.csv").read_text())
        swept = _strip_wall((cell / "trajectory.csv").read_text())
        assert solo == swept

    def test_divergence_is_data_not_failure(self, tmp_path):
        cfg = _small_config(step_size=1.0)
        assert cmd_sweep(cfg, "h", [1.0], tmp_path) == 0
        rows = _read_csv(tmp_path / "summary.csv")
        diverged = {row[0]: row[3] for row in rows[1:]}
        assert diverged["classical_gd"] == "true"

    def test_delta_axis(self, tmp_path):
        cfg = _small_config(iterations=10)
        assert cmd_sweep(cfg, "delta", [0.05, 0.1], tmp_path) == 0
        rows = _read_csv(tmp_path / "summary.csv")
        values = sorted({row[1] for row in rows[1:]})
        assert [float(v) for v in values] == [0.05, 0.1]

    def test_summary_lists_cells_scheme_major_then_by_value(self, tmp_path):
        # a delta sweep runs two stacks per value, and an h sweep two in all;
        # either way summary.csv lists the cells scheme-major, each scheme's
        # in the order the values were given
        cfg = _small_config(iterations=3)
        for param, values in (("delta", [0.1, 0.05, 0.2]), ("h", [0.5, 0.1, 2.2])):
            assert cmd_sweep(cfg, param, values, tmp_path / param) == 0
            rows = _read_csv(tmp_path / param / "summary.csv")[1:]
            assert [(row[0], float(row[1])) for row in rows] == [
                (scheme.value, value) for scheme in Scheme for value in values]

    def test_invalid_axis_rejected(self, tmp_path):
        from odelora.config import OutOfRange

        with pytest.raises(OutOfRange):
            cmd_sweep(_small_config(iterations=1), "mu", [0.1], tmp_path)

    def test_values_checked_before_any_cell(self, tmp_path):
        for param, values, name in (
            ("h", ["0.1", "x"], "solver.h"),
            ("h", [0.1, -0.5], "solver.h"),
            ("h", [float("nan")], "solver.h"),
            ("delta", [0.05, 1.5], "problem.delta"),
            ("h", [0.1, 0.1000001], "sweep.values"),
        ):
            with pytest.raises(OutOfRange) as err:
                cmd_sweep(_small_config(iterations=1), param, values, tmp_path)
            assert err.value.name == name
            assert list(tmp_path.iterdir()) == []

    def test_text_and_float_values_agree(self, tmp_path):
        cfg = _small_config(iterations=3)
        cmd_sweep(cfg, "h", ["0.1", " 0.2"], tmp_path / "text")
        cmd_sweep(cfg, "h", [0.1, 0.2], tmp_path / "float")
        assert (
            (tmp_path / "text" / "summary.csv").read_text()
            == (tmp_path / "float" / "summary.csv").read_text()
        )

    def test_builds_each_instance_once(self, tmp_path, monkeypatch):
        import odelora.cli as cli_mod

        builds = []
        real = cli_mod.make_sensing_instance

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(cli_mod, "make_sensing_instance", counting)
        config = tmp_path / "c.ini"
        config.write_text("[problem]\nm = 10\nn = 10\no = 10\nr = 2\n[solver]\niterations = 2\n")
        for param, values, want in (("h", "0.1,0.5", 1), ("delta", "0.05,0.1", 2)):
            builds.clear()
            assert main(["sweep", "--config", str(config), "--out", str(tmp_path / param),
                         "--param", param, "--values", values]) == 0
            assert len(builds) == want

    def test_certificate_once_per_experiment_and_skipped_when_off(self, tmp_path, monkeypatch):
        import odelora.cli as cli_mod

        calls = []
        real = cli_mod.sensing_eps_certificate
        monkeypatch.setattr(cli_mod, "sensing_eps_certificate",
                            lambda *args: calls.append(1) or real(*args))
        cfg = _small_config(iterations=2)
        cmd_sweep(cfg, "h", [0.1, 0.2], tmp_path / "on")
        metas = [path.read_text() for path in (tmp_path / "on").rglob("meta.txt")]
        assert len(metas) == 14 and all("eps_certificate" in meta for meta in metas)
        assert len(calls) == 1
        calls.clear()
        off = replace(cfg, diagnostics=replace(cfg.diagnostics, certificate=False))
        cmd_sweep(off, "h", [0.1, 0.2], tmp_path / "off")
        assert calls == []

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = _small_config(iterations=15)
        cmd_sweep(cfg, "h", [0.1, 0.2], tmp_path / "serial", jobs=1)
        cmd_sweep(cfg, "h", [0.1, 0.2], tmp_path / "par", jobs=4)
        assert (
            (tmp_path / "serial" / "summary.csv").read_text()
            == (tmp_path / "par" / "summary.csv").read_text()
        )

    def test_jobs_starts_no_thread(self, tmp_path, monkeypatch):
        # the sweep runs its stacks one after another whatever ``jobs`` says
        def refuse(self):
            raise AssertionError("the sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = _small_config(iterations=3)
        assert cmd_sweep(cfg, "h", [0.1, 0.2], tmp_path, jobs=4) == 0
        assert len((tmp_path / "summary.csv").read_text().splitlines()) == 15


class TestCmdOrder:
    def test_csv_shape_and_ranges(self, tmp_path):
        cfg = _small_config()
        assert cmd_order(cfg, tmp_path) == 0
        rows = _read_csv(tmp_path / "order.csv")
        assert rows[0] == ["scheme", "h", "defect", "observed_order"]
        assert len(rows) == 1 + 3 * 4  # three schemes x four step sizes
        orders = {row[0]: float(row[3]) for row in rows[1:]}
        assert 0.7 <= orders["ode_euler"] <= 1.3
        assert 1.7 <= orders["ode_rk2"] <= 2.3
        assert 3.5 <= orders["ode_rk4"] <= 4.5


class TestCmdFeatureScaling:
    def test_degenerate_dimension_list_warns(self, tmp_path):
        assert cmd_feature_scaling(tmp_path, [16], seeds=1, steps=1, h=0.1) == 0
        slope_lines = (tmp_path / "slopes.csv").read_text().strip().splitlines()
        assert slope_lines[0] == "scheme,component,slope"
        assert all(line.startswith("#") for line in slope_lines[1:])
        phi_rows = _read_csv(tmp_path / "phi.csv")
        assert phi_rows[0] == ["scheme", "n", "seed", "step", "component", "norm"]
        assert len(phi_rows) == 1 + 8 + 2  # rk4 components + classical components

    def test_slopes_written_for_two_dimensions(self, tmp_path):
        cmd_feature_scaling(tmp_path, [16, 32], seeds=1, steps=2, h=0.1)
        rows = _read_csv(tmp_path / "slopes.csv")
        assert rows[0] == ["scheme", "component", "slope"]
        assert len(rows) > 1

    def test_seed_list_accepted(self, tmp_path):
        assert cmd_feature_scaling(tmp_path, [16], seeds=[3], steps=1, h=0.1) == 0
        assert {row[2] for row in _read_csv(tmp_path / "phi.csv")[1:]} == {"3"}

    @pytest.mark.parametrize(
        "n_list, seeds, steps, h, flag",
        [
            ([], 1, 1, 0.1, "n_list"),
            ([2, 16], 1, 1, 0.1, "n_list"),
            ([16], 0, 1, 0.1, "seeds"),
            ([16], [], 1, 0.1, "seeds"),
            ([16], 1, 0, 0.1, "steps"),
            ([16], 1, 1, -1.0, "h"),
            ([16], 1, 1, float("nan"), "h"),
            ([16], 1, 1, float("inf"), "h"),
            ([64, 64], 1, 1, 0.1, "n_list"),
        ],
    )
    def test_unusable_inputs_rejected(self, tmp_path, n_list, seeds, steps, h, flag):
        out = tmp_path / "out"
        with pytest.raises(OutOfRange) as err:
            cmd_feature_scaling(out, n_list, seeds=seeds, steps=steps, h=h)
        assert err.value.name == f"feature-scaling.{flag}"
        assert not out.exists()


class TestMain:
    def test_run_exit_zero(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text("[problem]\nm = 10\nn = 10\no = 10\nr = 2\n[solver]\niterations = 3\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0

    def test_config_error_exit_two(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text("[problem]\ndelta = 2.0\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2

    def test_missing_config_file_exit_three(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]) == 3

    def test_seed_override_changes_instance(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text("[problem]\nm = 10\nn = 10\no = 10\nr = 2\n[solver]\niterations = 1\n")
        main(["run", "--config", str(config), "--out", str(tmp_path / "s0"), "--seed", "0"])
        main(["run", "--config", str(config), "--out", str(tmp_path / "s9"), "--seed", "9"])
        a = (tmp_path / "s0" / "trajectory.csv").read_text()
        b = (tmp_path / "s9" / "trajectory.csv").read_text()
        assert _strip_wall(a) != _strip_wall(b)

    def test_bad_sweep_values_exit_two_without_cells(self, tmp_path, capsys):
        for param, values in (("h", "x"), ("h", "0.1,-0.5"), ("h", "nan"), ("delta", "1.5"),
                              ("h", "inf")):
            out = tmp_path / f"{param}_{values}"
            code = main(["sweep", "--out", str(out), "--param", param, "--values", values])
            assert code == 2
            assert not out.exists()
            assert capsys.readouterr().err.startswith("error: ")

    def test_bad_feature_scaling_flags_exit_two(self, tmp_path, capsys):
        for flags in (["--seeds", "0"], ["--steps", "0"], ["--h", "-1"], ["--n-list", "2,4"],
                      ["--n-list", "8,a"], ["--n-list", "8.5,16"]):
            out = tmp_path / "_".join(flags)
            assert main(["feature-scaling", "--out", str(out), *flags]) == 2
            assert not out.exists()
            assert capsys.readouterr().err.startswith("error: feature-scaling.")

    # h = 2 blows plain factor descent up to a non-finite component; h = 1e3
    # leaves the first RK4 stage with a Gram the kernel refuses
    @pytest.mark.parametrize("h, cause", [("2", "non-finite output component"),
                                          ("1e3", "pivot")])
    def test_diverging_feature_scaling_exits_two_without_csv(self, tmp_path, capsys, h, cause):
        out = tmp_path / "out"
        code = main(["feature-scaling", "--out", str(out), "--n-list", "8,16",
                     "--seeds", "1", "--steps", "20", "--h", h])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "diverged" in err and cause in err

    def test_regression_zero_b_run(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text(
            "[problem]\nkind = regression\nm = 12\nn = 16\nr = 2\n"
            "[init]\nscheme = zero_b\n[solver]\niterations = 3\n"
        )
        for seed in ("0", "7"):
            out = tmp_path / seed
            assert main(["run", "--config", str(config), "--out", str(out), "--seed", seed]) == 0
            rows = _read_csv(out / "trajectory.csv")
            assert len(rows) == 5 and rows[-1][1] != "nan"

    def test_regression_zero_b_start_at_one_column_exits_two_without_output(self, tmp_path,
                                                                          capsys):
        # at n = 1 every row of A is parallel to the feature it is aligned with
        config = tmp_path / "c.ini"
        config.write_text("[problem]\nkind = regression\nm = 5\nn = 1\nr = 1\n"
                          "[init]\nscheme = zero_b\n")
        for verb, flags in (("run", []), ("sweep", ["--param", "h", "--values", "0.1"]),
                            ("order", [])):
            out = tmp_path / verb
            assert main([verb, "--config", str(config), "--out", str(out), *flags]) == 2
            assert not out.exists()
            assert capsys.readouterr().err.startswith("error: problem.n: a zero_b start")

    def test_regression_balanced_start_is_perturbed(self):
        def start_delta(perturbation):
            cfg = parse_config("[problem]\nkind = regression\nm = 12\nn = 16\nr = 2\n"
                               f"[init]\nperturbation = {perturbation}\n")
            return Experiment(cfg).factors.delta()

        clean, perturbed = start_delta(0.0), start_delta(0.05)
        cosine = np.sum(clean * perturbed) / (np.linalg.norm(clean) * np.linalg.norm(perturbed))
        assert cosine < 1.0 - 1e-6

    def test_negative_seed_exits_two_without_output(self, tmp_path, capsys):
        config = tmp_path / "c.ini"
        config.write_text("[problem]\nseed = -1\n")
        for flags in (["--seed", "-1"], ["--config", str(config)]):
            out = tmp_path / "out"
            assert main(["run", "--out", str(out), *flags]) == 2
            assert not out.exists()
            assert "must be nonnegative" in capsys.readouterr().err

    def test_unmeasurable_order_exits_two_without_csv(self, tmp_path, capsys, monkeypatch):
        # a start at the optimum leaves every terminal defect at round-off
        config = tmp_path / "c.ini"
        config.write_text("[problem]\nkind = quadratic\nm = 10\nn = 10\nr = 2\n"
                          "[init]\nscale = 1.0\nperturbation = 0.0\n")
        out = tmp_path / "out"
        assert main(["order", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: defect")

        import odelora.cli as cli_mod
        from odelora.diagnostics import ReferenceDiverged

        def diverged(*args):
            raise ReferenceDiverged("reference blew up")

        monkeypatch.setattr(cli_mod, "estimate_order", diverged)
        assert main(["order", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: reference blew up\n"

    def test_sweep_takes_no_jobs_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--out", str(tmp_path / "out"), "--param", "h",
                  "--values", "0.1", "--jobs", "2"])
        assert err.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_jobs_only_on_sweep(self, tmp_path):
        for verb in ("run", "order", "feature-scaling"):
            with pytest.raises(SystemExit) as err:
                main([verb, "--out", str(tmp_path / verb), "--jobs", "2"])
            assert err.value.code == 2


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["sensing", "quadratic", "regression"]),
    start=st.sampled_from(["balanced", "zero_b"]),
    scheme=st.sampled_from([scheme.value for scheme in Scheme]),
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    r=st.integers(1, 3),
    h=st.floats(-6.0, 6.0).map(lambda e: float(f"{10.0 ** e:.3g}")),
    eps_reg=st.one_of(st.just(0.0),
                      st.floats(-12.0, 3.0).map(lambda e: float(f"{10.0 ** e:.3g}"))),
    iterations=st.integers(0, 20),
    seed=st.integers(0, 3),
)
def test_failure_is_data_over_small_configs(tmp_path_factory, kind, start, scheme, m, n, r, h,
                                            eps_reg, iterations, seed):
    # ``run`` and an h ``sweep`` of one config exit 0 or 2 and never raise.
    # On 0 every trajectory has its final row: all iterations + 1 rows, or a
    # halt whose row logs a nan gradient norm, as meta.txt's diverged says.
    # On 2 (a config refused before any run) nothing is written. ``order``
    # is left out: one call takes about 2 s at these sizes.
    root = tmp_path_factory.mktemp("property")
    config = root / "cfg.ini"
    config.write_text(f"[problem]\nkind = {kind}\nm = {m}\nn = {n}\nr = {r}\nseed = {seed}\n"
                      f"[init]\nscheme = {start}\nseed = {seed}\n"
                      f"[solver]\nscheme = {scheme}\nh = {h!r}\niterations = {iterations}\n"
                      f"eps_reg = {eps_reg!r}\n")
    codes = set()
    for verb, flags, cells in (("run", [], 1),
                               ("sweep", ["--param", "h", "--values", f"{h!r},2.2"],
                                2 * len(Scheme))):
        out = root / verb
        code = main([verb, "--config", str(config), "--out", str(out), *flags])
        codes.add(code)
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
            continue
        metas = list(out.rglob("meta.txt"))
        assert len(metas) == cells
        for meta in metas:
            rows = _read_csv(meta.parent / "trajectory.csv")[1:]
            diverged = "diverged = true" in meta.read_text().splitlines()
            assert diverged == (rows[-1][2] == "nan"), rows[-1]
            assert diverged or len(rows) == iterations + 1
    assert len(codes) == 1  # both verbs read the same config

"""Self-test of the benchmark's output checks at tiny sizes (a few seconds).

    mkdir -p .perfbench_out
    python3 -m pytest -q -p no:cacheprovider perfbench/test_checks.py --basetemp=.perfbench_out/selftest

Each workload's check must pass odelora's real output and reject a
deliberately corrupted copy of it.
"""

from __future__ import annotations

import csv
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from worker import checked  # noqa: E402
from workloads import FeatureScaling, SensingLarge, SweepSmall  # noqa: E402

TINY_SWEEP = """\
[problem]
m = 10
n = 10
r = 2
[solver]
iterations = 300
[diagnostics]
eps_ratio = false
"""


def _rewrite(path: Path, edit) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _run(workload, out_dir: Path, seed: int = 3):
    inputs = workload.build(seed)
    ref = workload.reference(inputs)
    return ref, workload.call(inputs, out_dir)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep")
    (base / "tiny.cfg").write_text(TINY_SWEEP)
    workload = SweepSmall(config_path=base / "tiny.cfg")
    ref, result = _run(workload, base / "out")
    return workload, ref, result, base / "out"


def test_sweep_accepts_real_output(sweep):
    workload, ref, result, out = sweep
    assert workload.check(ref, out, result) == [None] * 21


@pytest.mark.parametrize("corruption", ["iteration0", "full_ft_converges", "order", "eps_ratio"])
def test_sweep_rejects_corrupted_output(sweep, tmp_path, corruption):
    workload, ref, result, out = sweep
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    if corruption == "iteration0":
        def edit(rows):
            rows[0]["loss"] = repr(float(rows[0]["loss"]) * (1 + 1e-6))
        _rewrite(copy / "ode_rk2_0.5" / "trajectory.csv", edit)
        bad = [(4, "ode_rk2")]
    elif corruption == "full_ft_converges":
        def edit(rows):
            rows[-1]["diverged"] = "false"
        _rewrite(copy / "summary.csv", edit)
        bad = [(20, "full_ft")]
    elif corruption == "order":
        def edit(rows):
            rows[0], rows[1] = rows[1], rows[0]
        _rewrite(copy / "summary.csv", edit)
        bad = [(i, "") for i in range(21)]
    else:
        def edit(rows):
            rows[5]["eps_ratio"] = "0.5"
        _rewrite(copy / "ode_euler_0.1" / "trajectory.csv", edit)
        bad = [(0, "ode_euler")]
    verdicts = workload.check(ref, copy, result)
    assert [i for i, v in enumerate(verdicts) if v] == [i for i, _ in bad]
    assert all(scheme in verdicts[i] for i, scheme in bad)


def test_sweep_fails_every_cell_on_unreadable_output(sweep, tmp_path):
    workload, ref, result, out = sweep
    copy = tmp_path / "out"
    shutil.copytree(out, copy)

    def edit(rows):
        rows[3]["final_loss"] = ""
    _rewrite(copy / "summary.csv", edit)
    with pytest.raises(ValueError):
        workload.check(ref, copy, result)
    verdicts = checked(workload, ref, copy, result)
    assert len(verdicts) == 21 and all("check raised" in v for v in verdicts)


@pytest.fixture(scope="module")
def sensing(tmp_path_factory):
    workload = SensingLarge(size=48, rank=2)
    ref, log = _run(workload, tmp_path_factory.mktemp("sensing"))
    return workload, ref, log


def test_sensing_accepts_real_output(sensing):
    workload, ref, log = sensing
    assert workload.check(ref, None, log) == [None]


@pytest.mark.parametrize("corruption", ["iteration0", "rise", "short", "diverged"])
def test_sensing_rejects_corrupted_output(sensing, corruption):
    workload, ref, log = sensing
    rows = list(log.rows)
    if corruption == "iteration0":
        rows[0] = replace(rows[0], loss=rows[0].loss * 1.001)
    elif corruption == "rise":
        rows[6] = replace(rows[6], loss=rows[5].loss * 1.01)
    elif corruption == "short":
        rows = rows[:-1]
    bad = replace(log, rows=rows, diverged=corruption == "diverged")
    assert workload.check(ref, None, bad) != [None]


def test_sensing_rejects_bad_s(sensing):
    workload, _, log = sensing
    problem, *rest = workload.build(3)
    ref = workload.reference((replace(problem, s=1.1 * problem.s), *rest))
    [verdict] = workload.check(ref, None, log)
    assert verdict is not None and "singular values of S" in verdict


@pytest.fixture(scope="module")
def features(tmp_path_factory):
    workload = FeatureScaling(n_list=(32, 64, 128), seeds=2, steps=10)
    out = tmp_path_factory.mktemp("features") / "out"
    ref, result = _run(workload, out)
    return workload, ref, result, out


def test_feature_scaling_accepts_real_output(features):
    workload, ref, result, out = features
    assert workload.check(ref, out, result) == [None]


@pytest.mark.parametrize(
    "corruption", ["slope", "gd_step0", "rk4_carry", "negative", "missing_row"]
)
def test_feature_scaling_rejects_corrupted_output(features, tmp_path, corruption):
    workload, ref, result, out = features
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    if corruption == "slope":
        def edit(rows):
            rows[0]["slope"] = "0.3"
        _rewrite(copy / "slopes.csv", edit)
    else:
        def edit(rows):
            if corruption == "gd_step0":
                row = next(r for r in rows if r["scheme"] == "classical_gd" and r["step"] == "0")
                row["norm"] = repr(float(row["norm"]) + 1e-9)
            elif corruption == "rk4_carry":
                row = next(r for r in rows if r["scheme"] == "ode_rk4" and r["component"] == "1")
                row["norm"] = "1e-300"
            elif corruption == "negative":
                rows[-1]["norm"] = "-" + rows[-1]["norm"]
            else:
                rows.pop()
        _rewrite(copy / "phi.csv", edit)
    verdict = workload.check(ref, copy, result)[0]
    assert verdict is not None
    if corruption == "slope":
        assert "exceeds" in verdict

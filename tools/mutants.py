"""The test suite's teeth, kept: a list of mutants that named tests must kill.

    python tools/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/``, an exact text that
must occur in it once, the text that replaces it, and the ids of the tests
that must each fail once it is replaced. For each entry the tool copies
``src/`` to a temporary directory, applies the mutant there and runs only
the named tests, from the checkout's ``tests/``, against the copy: the
mutated module is imported before the tests, and after them the run must
still hold it from the copy, so a test run that read the checkout's own
source cannot pass for a kill. A named id is killed when a test under it
fails; it must name at least one test. The named tests must pass on the
unchanged tree, which the Tier-1 suite checks.

The tool exits 0 when every mutant is killed, and 1, after trying them
all, when a mutant survives, when its old text does not occur exactly once,
or when a run did not import the copy or ran no test under a named id. A
change that moves the code a mutant names updates the entry; a mutant that
survives is a gap in the tests, not a reason to drop the entry.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str    # under src/
    old: str     # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the checkout


MUTANTS = [
    # F_B keeps the component of G A^T in B's range
    Mutant("odelora/core.py",
           "f_b = -grams.project_out_b(grams.solve_a(g_at.mT).mT) - b @ x",
           "f_b = -grams.solve_a(g_at.mT).mT - b @ x",
           ("tests/test_diagnostics.py::TestWeightFlowOracle",)),
    # the field points uphill
    Mutant("odelora/core.py",
           "return FieldEval(f_a, f_b, x)",
           "return FieldEval(-f_a, -f_b, x)",
           ("tests/test_acceptance.py::test_criterion_01_field_matches_kkt_and_sylvester_oracles",)),
    # the sensing distance drops its B-perp term
    Mutant("odelora/problems.py",
           "dist = np.sqrt(slice_dots(e, e) + np.maximum(off, 0.0))",
           "dist = np.sqrt(slice_dots(e, e))",
           ("tests/test_solvers.py::TestLoggedRow"
            "::test_sensing_distance_matches_a_longdouble_oracle",)),
    # a slice over the finiteness bound is taken as finite without forming its W
    Mutant("odelora/solvers.py",
           "finite[j] = np.isfinite(effective_weight(w_pt, state.take(j))).all()",
           "finite[j] = True",
           ("tests/test_solvers.py::TestLoggedRow"
            "::test_a_weight_that_overflows_halts_on_its_first_row",)),
    # the regression draw leaves a short last block of W_pt alone
    Mutant("odelora/problems.py",
           "starts = range(0, max(m // _BLOCK_ROWS, 1) * _BLOCK_ROWS, _BLOCK_ROWS)",
           "starts = range(0, m, _BLOCK_ROWS)",
           ("tests/test_problems.py::test_blocked_draw_keeps_the_dense_bits_at_any_thread_count",)),
    # the Euler flow steps 2.5 h
    Mutant("odelora/solvers.py",
           "Scheme.ODE_EULER: (EULER, _flow_direction),",
           "Scheme.ODE_EULER: (Tableau((), (5,), 2), _flow_direction),",
           ("tests/test_acceptance.py::test_criterion_06b_rk4_survives_where_euler_fails",)),
    # an order study measures every flow with RK4
    Mutant("odelora/diagnostics.py",
           "_integrate_weight(factors, objective, scheme,\n",
           "_integrate_weight(factors, objective, Scheme.ODE_RK4,\n",
           ("tests/test_acceptance.py::test_criterion_04_order_of_accuracy",
            "tests/test_diagnostics.py::TestEstimateOrder"
            "::test_each_flow_ends_where_its_public_step_does")),
    # an order study reads orders off defects that rise as h falls
    Mutant("odelora/diagnostics.py",
           "            if not d_next < d:\n",
           "            if False:\n",
           ("tests/test_diagnostics.py::TestEstimateOrder"
            "::test_defects_that_rise_as_h_falls_are_refused",)),
    # the quadratic's logged row checks its G again, which refuses an
    # overflowing gradient for the whole stack
    Mutant("odelora/problems.py",
           "return StateEval(loss, g, Sides(factors.b.mT @ g, g @ factors.a.mT))",
           'return StateEval(loss, g, Sides(factors.b.mT @ as_matrix(g, "G", stack=True), '
           "g @ factors.a.mT))",
           ("tests/test_solvers.py::TestRunTrajectory"
            "::test_an_overflowing_quadratic_gradient_is_data",)),
    # a refused stacked ratio factors a vanishing slice's Grams alone
    Mutant("odelora/solvers.py",
           "ratios.append(0.0 if np.sqrt(gnorm2[j]) <= ZERO_NORM\n"
           "                              else _ratio(",
           "ratios.append(_ratio(",
           ("tests/test_stack.py::test_vanishing_gradient_with_refused_grams_logs_a_zero_ratio",)),
    # the ratio divides a vanishing slice's round-off by its ||G||^2
    Mutant("odelora/metrics.py",
           "zero = np.sqrt(gnorm2) <= ZERO_NORM",
           "zero = False",
           ("tests/test_stack.py::test_slice_with_a_vanishing_gradient_logs_a_zero_ratio",)),
]

# Runs in the child: imports the mutated module from the copy, runs the named
# tests, and prints one JSON line of the ids that ran and failed and the file
# the module was held from after the run.
_RUNNER = """
import importlib, json, sys
import pytest
module = sys.argv[1]
importlib.import_module(module)
ran, failed = set(), set()
class Outcomes:
    def pytest_runtest_logreport(self, report):
        ran.add(report.nodeid)
        if report.failed:
            failed.add(report.nodeid)
pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ".", *sys.argv[2:]],
            plugins=[Outcomes()])
print(json.dumps({"file": sys.modules[module].__file__, "ran": sorted(ran),
                  "failed": sorted(failed)}))
"""


def _under(nodeid: str, test_id: str) -> bool:
    return nodeid == test_id or nodeid.startswith((test_id + "::", test_id + "["))


def _check(mutant: Mutant, root: Path) -> str | None:
    """None when ``mutant`` is killed, else what went wrong."""
    text = (root / "src" / mutant.file).read_text()
    if text.count(mutant.old) != 1:
        return f"old text occurs {text.count(mutant.old)} times, not once"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(root / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / mutant.file).write_text(text.replace(mutant.old, mutant.new))
        module = mutant.file.removesuffix(".py").replace("/", ".")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", _RUNNER, module, *mutant.tests],
                              cwd=root, env=env, capture_output=True, text=True)
        try:
            result = json.loads(done.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return f"the test run crashed:\n{done.stdout}{done.stderr}"
        if Path(result["file"]) != src / mutant.file:
            return f"the test run imported {result['file']}, not the copy"
    for test_id in mutant.tests:
        if not any(_under(nodeid, test_id) for nodeid in result["ran"]):
            return f"no test ran under {test_id}"
    survivors = [test_id for test_id in mutant.tests
                 if not any(_under(nodeid, test_id) for nodeid in result["failed"])]
    return f"survived {', '.join(survivors)}" if survivors else None


def run(mutants, root: Path = ROOT) -> int:
    faults = 0
    for i, mutant in enumerate(mutants):
        started = time.perf_counter()
        fault = _check(mutant, root)
        elapsed = time.perf_counter() - started
        print(f"mutant {i} ({mutant.file}, {elapsed:.1f} s): {fault or 'killed'}", flush=True)
        faults += fault is not None
    print(f"{len(mutants) - faults} of {len(mutants)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))

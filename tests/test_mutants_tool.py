"""``tools/mutants.py``: when a mutant counts as killed, on a synthetic checkout."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

TESTS = "tests/test_mod.py"


@pytest.fixture
def checkout(tmp_path):
    files = {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py": "def double(x):\n    return 2 * x\n",
        TESTS: "from pkg.mod import double\n\n\n"
               "def test_double():\n    assert double(3) == 6\n\n\n"
               "def test_type():\n    assert callable(double)\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    return tmp_path


def mutant(old="return 2 * x", tests=(f"{TESTS}::test_double",)):
    return mutants.Mutant("pkg/mod.py", old, "return 3 * x", tests)


def test_a_killed_mutant_passes_and_leaves_the_tree_alone(checkout, capsys):
    assert mutants.run([mutant()], checkout) == 0
    assert capsys.readouterr().out.endswith("1 of 1 mutants killed\n")
    assert (checkout / "src/pkg/mod.py").read_text() == "def double(x):\n    return 2 * x\n"


@pytest.mark.parametrize("bad, fault", [
    (mutant(tests=(f"{TESTS}::test_double", f"{TESTS}::test_type")),
     f"survived {TESTS}::test_type"),
    (mutant(old="return 4 * x"), "old text occurs 0 times, not once"),
    (mutant(old="x"), "old text occurs 2 times, not once"),
    (mutant(tests=(f"{TESTS}::test_missing",)), f"no test ran under {TESTS}::test_missing"),
])
def test_a_surviving_or_unappliable_mutant_fails_the_run(checkout, capsys, bad, fault):
    assert mutants.run([bad], checkout) == 1
    report, summary = capsys.readouterr().out.splitlines()
    assert report.startswith("mutant 0 (pkg/mod.py, ") and report.endswith(f": {fault}")
    assert summary == "0 of 1 mutants killed"


def test_every_mutant_is_tried_after_a_fault(checkout, capsys):
    assert mutants.run([mutant(old="return 4 * x"), mutant()], checkout) == 1
    assert capsys.readouterr().out.endswith(": killed\n1 of 2 mutants killed\n")

"""``tools/outputs.py compare``: what counts as a difference between two output trees."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "outputs", Path(__file__).resolve().parents[1] / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)

HEADER = "iter,loss,grad_norm,balance_defect,eps_ratio,dist_to_opt,wall_nanos\n"


def tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


@pytest.fixture
def base():
    return {"run/out/trajectory.csv": HEADER + "0,1.5,2.5,,0.25,3.5,1000\n",
            "run/stdout": "", "run/exit": "0 expected 0\n"}


def test_identical_trees_and_wall_nanos_pass(tmp_path, base, capsys):
    a = tree(tmp_path / "a", base)
    b = tree(tmp_path / "b", {**base, "run/out/trajectory.csv":
                              HEADER + "0,1.5,2.5,,0.25,3.5,2000\n"})
    assert outputs.compare(a, b) == 0
    assert capsys.readouterr().out == "3 files identical\n"


@pytest.mark.parametrize("rel, text", [
    ("run/out/trajectory.csv", HEADER + "0,1.5,2.5,,0.25,3.5000000000000004,1000\n"),
    ("run/exit", "2 expected 0\n"),
    ("run/stdout", "\n"),
])
def test_any_other_byte_is_a_difference(tmp_path, base, rel, text, capsys):
    a = tree(tmp_path / "a", base)
    b = tree(tmp_path / "b", {**base, rel: text})
    assert outputs.compare(a, b) == 1
    assert capsys.readouterr().out.startswith(f"{rel} differs at line ")


def test_a_file_in_one_tree_only_is_a_difference(tmp_path, base, capsys):
    a = tree(tmp_path / "a", base)
    b = tree(tmp_path / "b", {**base, "run/stderr": ""})
    assert outputs.compare(a, b) == 1
    assert capsys.readouterr().out == f"only in {b}: run/stderr\n"

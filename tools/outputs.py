"""Byte-identity evidence for odelora's CLI outputs.

    python tools/outputs.py run --src DIR --out DIR
    python tools/outputs.py compare A B

``run`` runs a fixed list of invocations against the checkout ``--src``
(its ``src/``, ``demos/`` and ``perfbench/sweep_small.cfg``) at one BLAS
thread: ``run`` x6, two sweeps of ``perfbench/sweep_small.cfg``, ``h``
sweeps on the quadratic, the zero-B ``eps_reg = 0`` regression and an
``o < n`` sensing config, ``order`` x4, ``feature-scaling`` x4 and both
demos. Each invocation gets a directory ``--out/NAME`` with the files the
CLI writes under ``out/``, and ``stdout``, ``stderr`` and ``exit``, which
holds the exit code and the code the list expects. Every invocation runs
in ``--out``, so no output names an absolute path. ``run`` exits 1 if any
invocation exits with another code than expected, after running them all.

``compare`` checks that two such trees hold the same files with the same
bytes, ``trajectory.csv`` on its columns 1-6 (every column but
``wall_nanos``). It exits 1 at the first difference, which it prints, and
0 with the number of files compared when there is none.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

QUADRATIC = "[problem]\nkind = quadratic\nm = 10\nn = 10\nr = 2\n"
REGRESSION = "[problem]\nkind = regression\nm = 10\nn = 12\nr = 2\n"
ZERO_B_EPS0 = REGRESSION + "[init]\nscheme = zero_b\n[solver]\neps_reg = 0\n"
CONFIGS = {
    "quadratic": QUADRATIC,
    "quadratic_full_ft": QUADRATIC + "[solver]\nscheme = full_ft\n",
    "sensing_full_ft": "[problem]\nm = 10\nn = 10\nr = 2\n[solver]\nscheme = full_ft\n",
    "regression": REGRESSION,
    "zero_b_eps0": ZERO_B_EPS0,
    "zero_b_eps0_500": ZERO_B_EPS0 + "iterations = 500\n",
    "few_outputs": "[problem]\nm = 40\nn = 40\no = 12\nr = 4\n",
}
H_VALUES = ["--param", "h", "--values", "0.1,0.5,2.2,8"]
SMALL = "perfbench/sweep_small.cfg"


def _config(name: str) -> list[str]:
    return ["--config", f"configs/{name}.cfg"]


# (name, expected exit code, argv); ``configs/`` holds CONFIGS and a copy of
# SMALL, and ``demo`` runs one of the checkout's demos instead of the CLI.
INVOCATIONS = [
    ("run_default", 0, ["run"]),
    ("run_quadratic", 0, ["run", *_config("quadratic")]),
    ("run_quadratic_full_ft", 0, ["run", *_config("quadratic_full_ft")]),
    ("run_sensing_full_ft", 0, ["run", *_config("sensing_full_ft")]),
    ("run_regression", 0, ["run", *_config("regression")]),
    ("run_zero_b_eps0", 0, ["run", *_config("zero_b_eps0_500")]),
    ("sweep_small_h", 0, ["sweep", *_config("sweep_small"), "--param", "h",
                          "--values", "0.1,0.5,2.2", "--seed", "3"]),
    ("sweep_small_delta", 0, ["sweep", *_config("sweep_small"), "--param", "delta",
                              "--values", "0.05,0.1,0.2", "--seed", "7"]),
    ("sweep_quadratic_h", 0, ["sweep", *_config("quadratic"), *H_VALUES]),
    ("sweep_zero_b_eps0_h", 0, ["sweep", *_config("zero_b_eps0"), *H_VALUES]),
    ("sweep_few_outputs_h", 0, ["sweep", *_config("few_outputs"), *H_VALUES]),
    ("order_default", 0, ["order"]),
    ("order_quadratic", 0, ["order", *_config("quadratic")]),
    ("order_regression", 0, ["order", *_config("regression")]),
    ("order_zero_b_eps0", 2, ["order", *_config("zero_b_eps0")]),
    ("fs_default", 0, ["feature-scaling"]),
    ("fs_small", 0, ["feature-scaling", "--n-list", "32,64", "--seeds", "2"]),
    ("fs_diverged_3.6", 2, ["feature-scaling", "--n-list", "8,16,32", "--seeds", "5",
                            "--steps", "20", "--h", "3.6"]),
    ("fs_diverged_2", 2, ["feature-scaling", "--n-list", "8,16", "--seeds", "1",
                          "--steps", "20", "--h", "2"]),
    ("demo_balance_preservation", 0, ["demo", "balance_preservation.py"]),
    ("demo_sensing_convergence", 0, ["demo", "sensing_convergence.py"]),
]
# Runs odelora's CLI from the interpreter, so no installed console script is needed.
CLI = "import sys; from odelora.cli import main; sys.exit(main(sys.argv[1:]))"


def _command(src: Path, name: str, argv: list[str]) -> list[str]:
    """The command line of one invocation, run from the output tree."""
    if argv[0] == "demo":
        return [sys.executable, str(src / "demos" / argv[1])]
    return [sys.executable, "-c", CLI, *argv, "--out", f"{name}/out"]


def run(src: Path, out: Path) -> int:
    src, out = src.resolve(), out.resolve()
    (out / "configs").mkdir(parents=True)  # FileExistsError: no stale files mix in
    for config, text in CONFIGS.items():
        (out / "configs" / f"{config}.cfg").write_text(text)
    (out / "configs" / "sweep_small.cfg").write_bytes((src / SMALL).read_bytes())
    env = dict(os.environ, PYTHONPATH=str(src / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    unexpected = []
    for name, expected, argv in INVOCATIONS:
        (out / name).mkdir()
        done = subprocess.run(_command(src, name, argv), cwd=out, env=env, capture_output=True)
        (out / name / "stdout").write_bytes(done.stdout)
        (out / name / "stderr").write_bytes(done.stderr)
        (out / name / "exit").write_text(f"{done.returncode} expected {expected}\n")
        print(f"{name}: exit {done.returncode}", flush=True)
        if done.returncode != expected:
            unexpected.append(f"{name} exited {done.returncode}, expected {expected}")
    for line in unexpected:
        print(f"unexpected exit: {line}", file=sys.stderr)
    return 1 if unexpected else 0


def _lines(path: Path) -> list[bytes]:
    """A file's lines, each ``trajectory.csv`` line cut to its columns 1-6."""
    lines = path.read_bytes().split(b"\n")
    if path.name == "trajectory.csv":
        lines = [b",".join(line.split(b",")[:6]) for line in lines]
    return lines


def compare(a: Path, b: Path) -> int:
    files = {tree: {p.relative_to(tree) for p in tree.rglob("*") if p.is_file()}
             for tree in (a, b)}
    for only, tree in ((files[a] - files[b], a), (files[b] - files[a], b)):
        if only:
            print(f"only in {tree}: {min(only)}")
            return 1
    for rel in sorted(files[a]):
        left, right = _lines(a / rel), _lines(b / rel)
        if left != right:
            i = next((i for i, pair in enumerate(zip(left, right)) if pair[0] != pair[1]),
                     min(len(left), len(right)))
            print(f"{rel} differs at line {i + 1}:")
            for tree, lines in ((a, left), (b, right)):
                line = lines[i].decode(errors="replace") if i < len(lines) else "<end of file>"
                print(f"  {tree}: {line}")
            return 1
    print(f"{len(files[a])} files identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the invocation list into a new tree")
    run_p.add_argument("--src", required=True, type=Path, help="checkout to run")
    run_p.add_argument("--out", required=True, type=Path, help="output tree")
    compare_p = sub.add_parser("compare", help="compare two output trees")
    compare_p.add_argument("a", type=Path)
    compare_p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.src, args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())

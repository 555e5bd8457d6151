"""Regenerate the reference figures of README.md.

    python3 perfbench/figures.py --runs 10 --seconds 30            # end-to-end
    python3 perfbench/figures.py --runs 1 --seconds 30 --trace 1   # per-layer

Runs ``run.py`` once per seed (0, 1, ..., runs - 1) on each workload, one
run at a time, and prints per metric the median, the quartile spread as a
share of the median (as ``statistics.quantiles(values, n=4)`` gives the
quartiles), the raw values, and each run's median probe time. The raw
output of every run is kept under ``.perfbench_out/figures/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOADS


def run_once(workload: str, seed: int, seconds: int, trace: int, log_dir: Path):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    (log_dir / f"{workload}-seed{seed}-trace{trace}.txt").write_text(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    log_dir = ROOT / ".perfbench_out" / "figures"
    log_dir.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        probes, outcomes = [], []
        for seed in range(args.runs):
            info, result = run_once(workload, seed, args.seconds, args.trace, log_dir)
            probes.append(info["probe_ms_median"])
            outcomes.append(f"{result['failed']}/{result['attempted']}"
                            + ("" if result["correct"] else " WRONG"))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"## {workload}: {args.runs} runs of {args.seconds} s, trace {args.trace}")
        print(f"failed/attempted per run: {', '.join(outcomes)}")
        print(f"probe ms per run: {', '.join(f'{p:.1f}' for p in probes)}")
        for name, vals in values.items():
            median = statistics.median(vals)
            line = f"{name} [{units[name]}]: median {median:.6g}"
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / median if median else 0.0
                line += f", quartiles {q1:.6g}..{q3:.6g}, spread {spread:.4f}"
                line += f", values {' '.join(f'{v:.6g}' for v in vals)}"
            print(line)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

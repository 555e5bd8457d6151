"""Benchmark of odelora: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep-small --seed 0 --seconds 30 --trace 0

Workloads: ``sweep-small``, ``sensing-large`` and ``feature-scaling`` (see
README.md). The run happens in a child process (``worker.py``) whose BLAS
and OpenMP pools are set to one thread before numpy loads. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics
``run_s``, ``setup_s`` and ``peak_rss_mb``, with ``--trace 1`` the
per-layer metrics. The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-small", "sensing-large", "feature-scaling")
ONE_THREAD = dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"),
    "1",
)
# Past this the worker is killed; every run must end within 180 s.
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "odelora" / "__init__.py").is_file():
        print(f"error: no odelora sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = {**os.environ, **ONE_THREAD}
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: the run exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run: a single workload in a process of its own.

``run.py`` starts this file with BLAS and OpenMP set to one thread in the
environment, so the setting holds before numpy loads. The run

1. imports odelora from the checkout's ``src`` (timed; numpy loads here,
   which is why nothing above ``main`` imports it),
2. makes a throwaway call on a tiny instance (untimed),
3. builds the workload's inputs several times (each build timed),
4. repeats whole rounds of the workload's timed call until ``--seconds``
   have passed, checking every round's outputs. Between rounds it times a
   fixed pure-numpy probe, as a witness of machine drift, and the same
   import of odelora in a fresh interpreter.

``setup_s`` is the median import time plus the median build time; ``run_s``
is the median round time. With ``--trace 1`` the rounds alternate untraced
and traced, and the run reports per-layer figures from the traced rounds
and the tracing overhead instead. The last line of standard output is the
result object; the line before it holds the machine facts, the probe times
and the raw times.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import odelora; print(time.perf_counter() - start)"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def probe_s() -> float:
    """Time a fixed pure-numpy job that does not touch odelora.

    It mixes many small LAPACK calls, as the field kernel makes, with
    mid-sized GEMMs, as the gradients make.
    """
    import numpy as np

    rng = np.random.default_rng(20240601)
    small = rng.standard_normal((8, 8))
    spd = small @ small.T + 8.0 * np.eye(8)
    big = rng.standard_normal((256, 256))
    start = time.perf_counter()
    for _ in range(1000):
        chol = np.linalg.cholesky(spd)
        np.linalg.solve(chol.T, np.linalg.solve(chol, small))
    for _ in range(24):
        big = np.tanh(big @ big.T / 256.0)
    return time.perf_counter() - start


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else ref
    return ref


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "odelora").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "commit": commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def fresh_import_s() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def declared_units(trace: int) -> dict[str, str]:
    """The unit of every metric that BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def checked(workload, ref, out_dir: Path, result) -> list[str | None]:
    """The verdicts on one round; output the check cannot read fails every operation."""
    try:
        return workload.check(ref, out_dir, result)
    except Exception as err:
        traceback.print_exc()
        return [f"check raised {err!r}"] * workload.operations


def save_spans(tracers, path: Path) -> None:
    """Write every traced round's spans: per round a (name, start_ns, end_ns, parent) table."""
    import numpy as np

    path.parent.mkdir(parents=True, exist_ok=True)
    rounds = {f"round{i}": np.frombuffer(t.spans, dtype=np.int64).reshape(-1, 4)
              for i, t in enumerate(tracers)}
    np.savez(path, names=np.array(tracers[0].names), **rounds)


def measure(args, workload, work_dir: Path, import_s: list[float],
            units: dict[str, str]) -> tuple[dict, dict]:
    from tracer import Tracer, layer_metrics, setup_metrics

    # ru_maxrss never falls, so its reading after each phase shows which phase set the peak.
    rss_by_phase = {"import": peak_rss_mb()}
    workload.warm_up(work_dir / "warm-up")
    rss_by_phase["warm_up"] = peak_rss_mb()
    build_s = []
    for _ in range(workload.builds):
        inputs = None  # so that one build's inputs are gone before the next is made
        start = time.perf_counter()
        inputs = workload.build(args.seed)
        build_s.append(time.perf_counter() - start)
    rss_by_phase["build"] = peak_rss_mb()

    metrics = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            workload.build(args.seed)
        finally:
            tracer.uninstall()
        metrics.update(setup_metrics(tracer))

    ref = workload.reference(inputs)
    rss_by_phase["reference"] = peak_rss_mb()
    out_dir = work_dir / "round"
    round_s, traced_s, probes, per_layer, tracers = [], [], [], [], []
    attempted = failed = wrong = 0
    faults: list[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        probes.append(probe_s())
        import_s.append(fresh_import_s())
        shutil.rmtree(out_dir, ignore_errors=True)
        tracer = Tracer() if args.trace and len(round_s) > len(traced_s) else None
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            result = workload.call(inputs, out_dir)
            verdicts = None
        except Exception as err:  # the program crashed: every operation of the round failed
            traceback.print_exc()
            verdicts = [f"raised {err!r}"] * workload.operations
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
        if verdicts is None:
            verdicts = checked(workload, ref, out_dir, result)
            wrong += sum(v is not None for v in verdicts)
        attempted += len(verdicts)
        failed += sum(v is not None for v in verdicts)
        faults += [v for v in dict.fromkeys(verdicts) if v is not None and v not in faults]
        if tracer:
            traced_s.append(elapsed)
            figures = layer_metrics(tracer, elapsed)
            figures["cli.bytes_written"], figures["cli.files_written"] = tree_size(out_dir)
            per_layer.append(figures)
            tracers.append(tracer)
        else:
            round_s.append(elapsed)
        # Start another round only if at least half of it fits before the deadline,
        # so that a run measures about --seconds whatever the round length.
        typical = statistics.median(round_s + traced_s)
        if time.perf_counter() + 0.5 * typical >= deadline and (not args.trace or traced_s):
            break
    probes.append(probe_s())
    import_s.append(fresh_import_s())
    rss_by_phase["rounds"] = peak_rss_mb()
    # The machine has slow and fast phases a few seconds long, so imports timed
    # back to back share one phase; spread over the run, as the rounds are,
    # their median is far less a matter of when the run started.
    setup_s = statistics.median(import_s) + statistics.median(build_s)

    run_s = statistics.median(round_s)
    if args.trace:
        metrics.update({name: statistics.median(f[name] for f in per_layer)
                        for name in per_layer[0]})
        metrics["trace.overhead_s"] = statistics.median(traced_s) - run_s
        metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / run_s
        save_spans(tracers, OUT / "spans" / f"{workload.name}-seed{args.seed}.npz")
    else:
        metrics = {"run_s": run_s, "setup_s": setup_s, "peak_rss_mb": rss_by_phase["rounds"]}

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "machine": machine_facts(),
        "import_s": import_s,
        "build_s": build_s,
        "round_s": round_s,
        "traced_round_s": traced_s,
        "peak_rss_mb_after": rss_by_phase,
        "probe_ms": [1e3 * p for p in probes],
        "probe_ms_median": 1e3 * statistics.median(probes),
        "run_s_over_probe": run_s / statistics.median(probes),
        "faults": faults[:10],
    }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    return info, result


def main(argv=None) -> int:
    args = parse_args(argv)
    units = declared_units(args.trace)
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import odelora  # noqa: F401

    import_s = [time.perf_counter() - start]

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = OUT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        info, result = measure(args, workload, work_dir, import_s, units)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

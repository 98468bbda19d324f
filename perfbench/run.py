"""Benchmark of the ptjc command-line pipelines, end to end or per layer.

    python3 perfbench/run.py --workload evolve-detuned --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, so no build or install is needed.  Load is one closed-loop
client in one process: the next op starts when the previous returns.
BLAS threads are capped at min(2, nproc) before NumPy loads.

``--trace 0`` measures the end-to-end metrics with tracing off.
``setup_s`` and ``first_op_s`` are medians over fresh interpreters
(``first_op.py``) interleaved with the run, which take about
FRESH_SHARE of its time; the steady-state metrics come from the ops
run in this process between them, after one warm-up op.  ``--trace 1`` is a separate run that
alternates traced and untraced ops and reports per-layer times and
counts (per-op means) plus the tracing overhead.

Every op's outputs are checked.  The last stdout line is one JSON
object with keys correct, attempted, failed and metrics; the lines
above it, and ``.bench_out/<workload>-seed<n>-trace<t>.json``, hold the
run's metadata and per-op records.  The traced run also writes its
spans to ``.bench_out/spans-<workload>-seed<n>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Share of the run spent in fresh interpreters (setup_s, first_op_s).
FRESH_SHARE = 0.3
# Steady ops measured even when one op outlasts --seconds.
MIN_STEADY_OPS = 5
FRESH_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_op_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "cpu_per_op_s": "s",
    "peak_rss_mib": "MiB",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _rk4_imported() -> bool:
    try:
        __import__("ptjc._rk4")
    except ImportError:
        return False
    return True


def metadata(seed: int, blas_threads: int) -> dict:
    import numpy as np
    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "blas_threads": blas_threads,
        "rk4_compiled_imported": _rk4_imported(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _record(phase: str, result, op) -> dict:
    return {"phase": phase, "index": result.index, "wall_s": result.wall_s,
            "cpu_s": result.cpu_s, "errors": result.errors, "size": op.size,
            "params": op.params}


def _fresh_sample(name: str, seed: int, index: int, workdir: Path) -> dict:
    """Run first_op.py in a new interpreter; its record, or one with the error."""
    cmd = [sys.executable, str(HERE / "first_op.py"), name, str(seed), str(index), str(workdir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=FRESH_TIMEOUT_S)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return {"phase": "fresh", "index": index, "errors": [f"fresh interpreter: {exc!r}"]}
    sample.update(phase="fresh", index=index)
    return sample


def _window(seconds: float, step) -> None:
    """Call step(index, elapsed) for index 1, 2, ... until `seconds` have
    passed and at least MIN_STEADY_OPS calls returned True (ran an op)."""
    start = time.perf_counter()
    index = ops = 0
    while True:
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and ops >= MIN_STEADY_OPS:
            return
        ops += bool(step(index, elapsed))


def end_to_end_run(workloads, name: str, seed: int, seconds: float, workdir: Path):
    workload = workloads.WORKLOADS[name]()
    op = workload.make_op(seed, 0, workdir)
    records = [_record("warmup", workloads.run_op(workload, op), op)]
    fresh, steady = [], []
    fresh_s = 0.0

    # A fresh interpreter runs whenever they have had less than their
    # share of the time so far.  That spreads them over the whole run, so
    # setup_s and first_op_s see the same machine conditions as the
    # steady ops, and cheap workloads get more samples.
    def step(index, elapsed):
        nonlocal fresh_s
        if fresh_s <= FRESH_SHARE * elapsed:
            t0 = time.perf_counter()
            fresh.append(_fresh_sample(name, seed, index, workdir / "fresh"))
            fresh_s += time.perf_counter() - t0
            return False
        op = workload.make_op(seed, index, workdir)
        result = workloads.run_op(workload, op)
        steady.append(result)
        records.append(_record("steady", result, op))
        return True

    _window(seconds, step)
    records += fresh
    timed = [r for r in fresh if "setup_s" in r]
    if not timed:
        raise RuntimeError(f"no fresh interpreter finished: {fresh[0]['errors']}")
    walls = [r.wall_s for r in steady]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "first_op_s": statistics.median(r["first_op_s"] for r in timed),
        "op_p50_s": statistics.median(walls),
        "op_p90_s": statistics.quantiles(walls, n=10)[8],
        "ops_per_s": len(walls) / sum(walls),
        "cpu_per_op_s": statistics.median(r.cpu_s for r in steady),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    notes = [f"samples: {len(timed)} fresh interpreters, {len(walls)} steady ops "
             f"over {sum(walls):.2f} s"]
    return records, metrics, notes


def traced_run(workloads, name: str, seed: int, seconds: float, workdir: Path):
    import tracing

    workload = workloads.WORKLOADS[name]()
    op = workload.make_op(seed, 0, workdir)
    records = [_record("warmup", workloads.run_op(workload, op), op)]
    tracer = tracing.Tracer()
    walls = {"traced": [], "untraced": []}

    def step(index, elapsed):
        phase = "traced" if index % 2 else "untraced"
        op = workload.make_op(seed, index, workdir)
        result = workloads.run_op(workload, op, tracer if phase == "traced" else None)
        walls[phase].append(result.wall_s)
        records.append(_record(phase, result, op))
        return True

    _window(seconds, step)
    metrics = tracer.layer_metrics()
    op_s = statistics.fmean(tracer.op_durations())
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(walls["traced"]) / statistics.median(walls["untraced"]), "ratio")
    tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
    absent = sorted(k for k, (v, _) in metrics.items() if v is None)
    shares = {k: v / op_s for k, (v, unit) in metrics.items()
              if unit == "s" and v is not None and not k.startswith("trace.")}
    notes = [f"samples: {len(walls['traced'])} traced ops, {len(walls['untraced'])} untraced ops",
             "absent: " + (", ".join(absent) if absent else "none"),
             "share of traced op time (spans nest, so shares overlap): " + ", ".join(
                 f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
                 if v >= 0.001)]
    return records, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ptjc" / "__init__.py").is_file():
        print(f"error: no ptjc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = min(2, _nproc())
    for var in BLAS_THREAD_VARS:  # must precede the first NumPy import
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    meta = metadata(args.seed, blas_threads)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else end_to_end_run
        records, metrics, notes = run(workloads, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for r in records if r["errors"])
    sizes = sorted({json.dumps(r["size"], sort_keys=True) for r in records if "size" in r})
    for key, value in meta.items():
        print(f"{key}: {value}")
    print(f"workload: {args.workload}: {workloads.WORKLOADS[args.workload].__doc__.splitlines()[0]}")
    print(f"input size per op: {', '.join(sizes)}")
    for note in notes:
        print(note)
    for key, (value, unit) in metrics.items():
        print(f"{key:28s} {'absent' if value is None else format(value, '.6g'):>14s} {unit}")
    print(f"{'failed_ratio':28s} {failed / attempted:>14.6g} ({failed}/{attempted} ops)")
    for r in records:
        if r["errors"]:
            print(f"failed op {r['index']} ({r['phase']}): {'; '.join(r['errors'])}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": 0.0 if v is None else v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"metadata": meta, "workload": args.workload, "seconds": args.seconds,
                   "notes": notes, "result": result, "ops": records}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 bench/run.py --workload askkm_cli --seed 1 --seconds 36 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

One run sets up the workload's inputs from the seed, then runs operations one
after another (a single-client closed loop) for the given seconds and checks
each one's outputs. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it runs half the time with every package function wrapped in a
span and half unwrapped, and reports the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run artifacts (environment, per-op times, spans) go to `.bench_out/`.
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
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
ENV_THREADS = "MISSPEC_SSL_THREADS"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it, never below the median."""
    s = sorted(values)
    n = len(s)
    k = max(n - 1 - TAIL_BEYOND, n // 2)
    return s[k], 100.0 * (k + 1) / n


def import_seconds() -> list[float]:
    """Wall times of fresh interpreters importing the package: the part of
    set-up a CLI user pays on every start."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import misspec_ssl.cli"], env=env, check=True)
        times.append(perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # a plain checkout: do not let git search above it
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args, cleared_threads: str | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        f"{ENV_THREADS}_cleared_value": cleared_threads,
        "git_commit": _git_commit(),
    }


def measure(workload, seconds: float, root, first_op: int):
    """Run operations until `seconds` have passed (at least one);
    returns (op seconds, failure messages, next op index)."""
    times: list[float] = []
    failures: list[str] = []
    i = first_op
    deadline = perf_counter() + seconds
    while True:
        try:
            took, failed = workload.op(i, root)
        except Exception:  # one broken op is a counted failure, not a crashed run
            took, failed = float("nan"), [traceback.format_exc(limit=3)]
        if failed:
            failures.append(f"op {i}: " + "; ".join(failed))
        else:
            times.append(took)
        i += 1
        if perf_counter() >= deadline:
            return times, failures, i


def end_to_end(times: list[float], setup_s: float) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics of an untraced run, and notes for the summary."""
    tail_s, tail_pct = tail(times) if times else (float("nan"), float("nan"))
    values = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times) if times else float("nan"),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, {"tail_percentile": tail_pct}


def traced_run(wl, seconds: float, spans):
    """Half the time traced, half untraced; per-layer metrics, failures
    (including the bypass check), ops attempted, traced op times, notes."""
    tracer = spans.Tracer()
    with tracer:
        traced, failures, next_op = measure(wl, seconds / 2, tracer.root, 0)
    plain, more, attempted = measure(wl, seconds / 2, spans.untraced_root, next_op)
    failures += more
    calls = spans.layer_calls(tracer.spans)
    failures += [f"bypass check: {calls[layer]} {layer} calls" for layer in wl.bypasses
                 if calls[layer]]
    overhead = (statistics.median(traced) / statistics.median(plain)
                if traced and plain else float("nan"))
    notes = {
        "layer_calls": calls,
        "phase_breakdown": {p: spans.phase_breakdown(tracer.spans, p) for p in wl.phases},
        "trace_overhead_ratio": overhead,
        "untraced_op_s": plain,
    }
    return spans.layer_metrics(tracer.spans), failures, attempted, traced, notes, tracer.spans


def run_one(args, units: dict[str, str]) -> int:
    cleared = os.environ.pop(ENV_THREADS, None)  # so curve really runs its --workers
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    env = environment(args, cleared)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = workloads.WORKLOADS[args.workload](work=work, seed=args.seed)
        imports = import_seconds()
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.setup()
            setups.append(perf_counter() - t0)
        if args.trace:
            values, failures, attempted, times, notes, recorded = traced_run(
                wl, args.seconds, spans)
            with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
                for span in recorded:
                    fh.write(json.dumps(asdict(span)) + "\n")
        else:
            times, failures, attempted = measure(wl, args.seconds, spans.untraced_root, 0)
            setup_s = statistics.median(imports) + statistics.median(setups)
            values, notes = end_to_end(times, setup_s)
        extras = wl.extras()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {"env": env, "result": result, "import_runs_s": imports, "setup_runs_s": setups,
              "op_s": times, "failures": failures, "extras": extras, **notes}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {attempted} ops attempted, {failed} failed, "
          f"fail_ratio {failed / attempted:.4f}, timed ops n={len(times)}")
    for msg in failures[:5]:
        print("FAILED " + msg.strip().replace("\n", " | "))
    for k, v in extras.items():
        print(f"  {k} = {v:.4f}")
    if args.trace:
        print(f"  trace overhead (traced p50 / untraced p50) = {notes['trace_overhead_ratio']:.4f}")
        for phase, parts in notes["phase_breakdown"].items():
            shares = ", ".join(f"{k} {v:.3f}" for k, v in sorted(parts.items()) if k != "wall")
            print(f"  {phase} wall {parts.get('wall', 0.0):.3f} s = self time by layer: {shares}")
    else:
        print(f"  op_tail_s is p{notes['tail_percentile']:.1f} of n={len(times)}")
    for k, v in values.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(json.dumps(result))
    return 0


def run_all(names: list[str], seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            print(f"== {name} trace={trace} (exit {proc.returncode})")
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                status = 1
            elif not json.loads(proc.stdout.splitlines()[-1])["correct"]:
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None,
                    help="one workload of BENCHMARK.json (default: all, untraced and traced)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "misspec_ssl" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(names, args.seed, args.seconds)
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sys.path.insert(0, str(BENCH_DIR))
    return run_one(args, units)


if __name__ == "__main__":
    sys.exit(main())

"""kronmf benchmark: end-to-end CLI workloads and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pairs-oracle --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

Untraced (``--trace 0``), the run reports the end-to-end metrics of
``BENCHMARK.json``; traced (``--trace 1``), the per-layer ones.  Human
readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from workloads import ROOT, SRC, WORKLOADS, Run

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
TMP_PREFIX = ".perfbench-"


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, mn_backend: str | None) -> dict:
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel": platform.release(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
    }
    if mn_backend is not None:
        env["mn_backend"] = mn_backend
    return env


def end_to_end(tally) -> dict[str, float]:
    return {
        "setup_s": statistics.median(tally.setup),
        "run_s": statistics.median(tally.run),
        "peak_rss_mb": max(tally.rss),
        "query_p50_ms": 1000.0 * statistics.median(tally.wall),
    }


def per_layer(tally) -> dict[str, float]:
    import tracer

    metrics = tracer.layer_metrics(tally.trace_totals)
    metrics["trace.overhead_ratio"] = statistics.median(tally.traced_run) / statistics.median(tally.run)
    return metrics


def complete(tally, trace: bool) -> bool:
    """Whether enough children reported for every metric to be computed."""
    if trace:
        return bool(tally.run and tally.traced_run) and tally.trace_totals is not None
    return bool(tally.setup and tally.run and tally.wall and tally.rss)


def measure(spec, seed: int, seconds: float, trace: bool, tmp: Path, goldens: dict | None = None):
    """One run of one workload: (metrics, tally), metrics None if no repetition completed."""
    tally = Run(spec, seed, seconds, trace, tmp, goldens).execute()
    if not complete(tally, trace):
        return None, tally
    return (per_layer(tally) if trace else end_to_end(tally)), tally


def result_line(results, units: dict) -> dict:
    """The final JSON object; a workload without metrics makes it incorrect."""
    attempted = sum(tally.attempted for _, _, tally in results)
    failed = sum(tally.failed for _, _, tally in results)
    combined = {}
    for name, metrics, _ in results:
        for metric, unit in units.items():
            if metrics is not None:
                key = metric if len(results) == 1 else f"{name}.{metric}"
                combined[key] = {"value": metrics[metric], "unit": unit}
    correct = failed == 0 and all(metrics is not None for _, metrics, _ in results)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}


def report(name: str, metrics: dict | None, units: dict, tally) -> None:
    if metrics is None:
        print(f"{name:<13} no repetition completed; no metrics")
    else:
        for metric, unit in units.items():
            print(f"{name:<13} {metric:<42} {metrics[metric]!r:>24} {unit}")
    print(f"{name:<13} samples: run {tally.run!r} traced {tally.traced_run!r}", file=sys.stderr)
    if tally.speed:
        speed = statistics.median(tally.speed)
        print(f"{name:<13} {'calibration factor (1 = reference speed)':<42} {speed!r:>24}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{name:<13} {'fail_frac':<42} {frac!r:>24} ({tally.failed}/{tally.attempted})")
    if tally.trace_totals is not None:
        import tracer

        shares = tracer.self_time_shares(tally.trace_totals)[:5]
        print(f"{name:<13} top self time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares))


def scratch_dir() -> Path:
    """A new per-invocation directory for cache and span files.

    It is under the checkout root, because the benchmark reads and writes
    only inside its checkout.  A run that is killed cannot remove its
    directory, so directories of runs whose process is gone are removed
    here first.
    """
    for old in ROOT.glob(TMP_PREFIX + "*"):
        pid = old.name[len(TMP_PREFIX):].split("-", 1)[0]
        if pid.isdigit() and not pid_alive(int(pid)):
            shutil.rmtree(old, ignore_errors=True)
    return Path(tempfile.mkdtemp(prefix=f"{TMP_PREFIX}{os.getpid()}-", dir=ROOT))


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all", *WORKLOADS), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kronmf" / "__init__.py").is_file():
        print(f"error: no kronmf sources under {SRC}; run from a kronmf checkout", file=sys.stderr)
        return 2
    end_units, layer_units = metric_units()
    units = layer_units if args.trace else end_units
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    if hasattr(os, "sched_setaffinity"):
        # one CPU for the parent's calibration loop and every child (see workloads.py)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = scratch_dir()
    try:
        results = [
            (name, *measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), tmp)) for name in names
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    mn_backend = next((tally.mn_backend for _, _, tally in results if tally.mn_backend), None)
    print("env " + json.dumps(environment(args.seed, mn_backend)))
    for name, metrics, tally in results:
        report(name, metrics, units, tally)
    print(json.dumps(result_line(results, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

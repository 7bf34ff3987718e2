#!/usr/bin/env python
"""CI perf-trajectory gate: fresh benchmark ratios vs the committed baseline.

Re-runs three benchmarks at full durations (the committed baselines'
protocol) — serving, backends and autofix — then compares each fresh
run's ``derived_x`` speedup ratios against its committed trajectory
baseline (``results/BENCH_serving.json``, ``results/BENCH_backends.json``,
``results/BENCH_autofix.json``) with :func:`repro.harness.trajectory.
compare_trajectories`.  The backends and autofix gates are skipped when
their baseline file is absent.  A ratio more than ``--tolerance``
(default 15%) below its baseline fails the run; absolute wall times are
recorded but never gated (they belong to the machine, not the code).

Records carrying a ``host_cpus`` field are CPU-scaling claims (e.g. "4
shards = X× one shard"): they are skipped when the current host has fewer
CPUs than the baseline host, because a 2-core runner cannot reproduce a
ratio measured with 4 runnable cores — that is a fact about the runner,
not a regression.

Escape hatch (emergencies, perf-irrelevant branches)::

    REPRO_SKIP_PERF_TESTS=1 python scripts/check_perf_trajectory.py

Exit codes: 0 ok/skipped, 1 regression(s), 2 usage/baseline problems.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.harness.trajectory import (  # noqa: E402
    compare_trajectories,
    load_bench,
    record_key,
    render_deltas,
)


def regenerate(json_path: Path, shards: int) -> None:
    """Re-run the serving benchmark, writing only to temp paths.

    Full durations, not ``--quick``: the committed baseline was measured
    at full durations, and a ratio is only comparable to a ratio measured
    under the same protocol.
    """
    scratch = json_path.parent
    cmd = [
        sys.executable, str(REPO / "benchmarks" / "bench_serving.py"),
        "--shards", str(shards),
        "--json", str(json_path),
        "--out", str(scratch / "bench_serving.txt"),
        "--sharded-out", str(scratch / "bench_serving_sharded.txt"),
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)


def regenerate_backends(json_path: Path) -> None:
    """Re-run the backends benchmark (native tiling acceptance ratios)."""
    scratch = json_path.parent
    cmd = [
        sys.executable, str(REPO / "benchmarks" / "bench_backends.py"),
        "--json", str(json_path),
        "--out", str(scratch / "bench_backends.txt"),
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)


def regenerate_autofix(json_path: Path) -> None:
    """Re-run the autofix closed-loop benchmark (promotion speedup ratio)."""
    scratch = json_path.parent
    cmd = [
        sys.executable, str(REPO / "benchmarks" / "bench_autofix.py"),
        "--json", str(json_path),
        "--out", str(scratch / "bench_autofix.txt"),
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)


def gate(baseline_doc: dict, current_doc: dict, tolerance: float) -> bool:
    """Compare one benchmark's trajectories; print deltas; True = regressed.

    Applies the ``host_cpus`` skip: baseline records claiming CPU scaling
    the current host cannot exhibit are excluded rather than failed.
    """
    cpus = os.cpu_count() or 1
    gated_baseline = dict(baseline_doc)
    skipped = [
        r for r in baseline_doc["records"]
        if r.get("host_cpus") is not None and cpus < int(r["host_cpus"])
    ]
    gated_baseline["records"] = [
        r for r in baseline_doc["records"] if r not in skipped
    ]
    for record in skipped:
        name = "/".join(str(part) for part in record_key(record))
        print(f"SKIPPED  {name}: scaling claim needs {record['host_cpus']} "
              f"cpus, host has {cpus}")
    deltas = compare_trajectories(gated_baseline, current_doc,
                                  tolerance=tolerance)
    print(render_deltas(deltas))
    return any(d.regressed for d in deltas)


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path,
                        default=REPO / "results" / "BENCH_serving.json")
    parser.add_argument("--backends-baseline", type=Path,
                        default=REPO / "results" / "BENCH_backends.json",
                        help="committed backends-benchmark trajectory "
                        "(skipped when absent, or when --current is given)")
    parser.add_argument("--autofix-baseline", type=Path,
                        default=REPO / "results" / "BENCH_autofix.json",
                        help="committed autofix-benchmark trajectory "
                        "(skipped when absent, or when --current is given)")
    parser.add_argument("--current", type=Path, default=None,
                        help="pre-generated fresh trajectory file for the "
                        "serving gate (skips every benchmark re-run; for "
                        "testing the gate itself)")
    parser.add_argument("--tolerance", type=float, default=0.15)
    args = parser.parse_args(argv)

    if os.environ.get("REPRO_SKIP_PERF_TESTS") == "1":
        print("REPRO_SKIP_PERF_TESTS=1 — perf-trajectory gate skipped")
        return 0
    if not args.baseline.exists():
        print(f"error: no committed baseline at {args.baseline}", file=sys.stderr)
        return 2

    regressed = False
    baseline = load_bench(args.baseline)
    if args.current is not None:
        print(f"== {args.baseline.name} vs {args.current.name}")
        regressed |= gate(baseline, load_bench(args.current), args.tolerance)
        return 1 if regressed else 0

    with tempfile.TemporaryDirectory(prefix="repro-perf-") as scratch:
        fresh = Path(scratch) / "BENCH_serving.json"
        shards = max(
            (r.get("shards", 0) for r in baseline["records"]), default=4
        )
        regenerate(fresh, shards or 4)
        print(f"== {args.baseline.name}")
        regressed |= gate(baseline, load_bench(fresh), args.tolerance)

        if args.backends_baseline.exists():
            fresh_backends = Path(scratch) / "BENCH_backends.json"
            regenerate_backends(fresh_backends)
            print(f"== {args.backends_baseline.name}")
            regressed |= gate(
                load_bench(args.backends_baseline),
                load_bench(fresh_backends),
                args.tolerance,
            )
        else:
            print(f"note: no committed baseline at "
                  f"{args.backends_baseline} — backends gate skipped")

        if args.autofix_baseline.exists():
            fresh_autofix = Path(scratch) / "BENCH_autofix.json"
            regenerate_autofix(fresh_autofix)
            print(f"== {args.autofix_baseline.name}")
            regressed |= gate(
                load_bench(args.autofix_baseline),
                load_bench(fresh_autofix),
                args.tolerance,
            )
        else:
            print(f"note: no committed baseline at "
                  f"{args.autofix_baseline} — autofix gate skipped")

    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

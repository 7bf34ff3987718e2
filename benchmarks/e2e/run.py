"""End-to-end benchmark: named workloads, checked outputs, per-layer traces.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--seconds T] [--trace 0|1] [--json OUT] [--spans OUT]

Each workload runs in a fresh process with a clean ``REPRO_*`` environment
(library defaults), a fresh empty kernel cache and a private ``TMPDIR``,
all under ``.bench_build/e2e`` in the checkout, removed afterwards.  With
``--trace 0`` every end-to-end metric of ``BENCHMARK.json`` is printed;
with ``--trace 1`` every per-layer one, measured with spans around the
library's public entry points (``--spans`` writes them out).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every output
checked.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: A workload process must finish within this many seconds; the whole
#: command is held to three minutes for one workload.
CHILD_TIMEOUT = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(workdir: Path) -> Dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` knob, plus a fresh
    kernel cache and temporary directory inside ``workdir``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(workdir / "cache" / "initial")
    env["TMPDIR"] = str(workdir / "tmp")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in its own process group; return its result."""
    base = ROOT / ".bench_build" / "e2e"
    workdir = base / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
    (workdir / "tmp").mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(workdir), "--result", str(result_path),
    ]
    try:
        # The workload's own output goes to stderr: stdout is for results.
        proc = subprocess.Popen(cmd, env=child_env(workdir), stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # Shard workers live in the child's process group: stop them
            # all, whether the child exited or not, and reap the child.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code is None:
            raise BenchmarkError(f"{name}: no result within {CHILD_TIMEOUT:.0f} s")
        if code != 0 or not result_path.is_file():
            raise BenchmarkError(f"{name}: workload process exited with status {code}")
        return json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for path in (base, base.parent):
            try:
                path.rmdir()  # only when empty: a concurrent run may own it
            except OSError:
                pass


def select_metrics(name: str, result: dict, wanted: List[dict], trace: int) -> dict:
    """``{metric: {"value", "unit"}}`` for every metric in ``wanted``.

    A layer a workload does not exercise reports 0.  A name the workload
    reports that ``BENCHMARK.json`` does not declare is an error, and so
    is a missing end-to-end metric.
    """
    reported = result["metrics"]
    declared = {m["name"] for m in wanted}
    unknown = sorted(set(reported) - declared)
    missing = [] if trace else sorted(declared - set(reported))
    if unknown or missing:
        raise BenchmarkError(f"{name}: undeclared metrics {unknown}, missing {missing}")
    return {
        m["name"]: {"value": float(reported.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }


def describe(name: str, result: dict) -> List[str]:
    info = result["info"]
    lines = [f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
             f"correct {result['correct']}; {info['samples']} latency samples, "
             f"{info['beyond_p90']} beyond p90; setups "
             + ", ".join(f"{s:.3f}" for s in info["setup_s"]) + " s"]
    if "lag_p99_ms" in info:
        lines.append(f"{name}: generator lag p99 {info['lag_p99_ms']:.3f} ms, "
                     f"executor builds in window {info['executor_builds_in_window']}")
    if not info["valid"]:
        lines.append(f"{name}: INVALID RUN: executors were built inside the "
                     f"measured window")
    for metric, entry in result["selected"].items():
        lines.append(f"  {name:<16} {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=20140519)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--json", type=Path, metavar="OUT",
                        help="write every result, with run details, to OUT")
    parser.add_argument("--spans", type=Path, metavar="OUT",
                        help="with --trace 1: write the recorded spans to OUT")
    args = parser.parse_args(argv)
    if args.spans is not None and not args.trace:
        parser.error("--spans needs --trace 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    chosen = args.workload or names
    for name in chosen:
        if name not in names:
            parser.error(f"unknown workload {name!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    wanted = config["per_layer" if args.trace else "end_to_end"]

    results = {}
    try:
        for name in chosen:
            result = run_child(name, args.seed, seconds, args.trace)
            result["selected"] = select_metrics(name, result, wanted, args.trace)
            results[name] = result
            print("\n".join(describe(name, result)), flush=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.spans is not None:
        args.spans.write_text(json.dumps(
            {name: r["info"].pop("spans") for name, r in results.items()}))
    if args.json is not None:
        for r in results.values():
            r["info"].pop("spans", None)
        args.json.write_text(json.dumps({
            "seed": args.seed, "seconds": seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "workloads": {
                name: {"correct": r["correct"], "attempted": r["attempted"],
                       "failed": r["failed"], "metrics": r["selected"],
                       "info": r["info"]}
                for name, r in results.items()
            },
        }, indent=1, sort_keys=True))

    def key(name: str, metric: str) -> str:
        return metric if len(results) == 1 else f"{name}/{metric}"

    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {key(name, metric): entry for name, r in results.items()
                    for metric, entry in r["selected"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of end-to-end benchmark results, metric by metric.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file is what ``run.py --json`` wrote; ``A`` is the baseline (the
parent commit), ``B`` the change.  For every end-to-end metric of
``BENCHMARK.json`` and every workload present on both sides, the median
and quartiles of each side are printed with one verdict, under that
metric's bound (a share of A's median):

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, and B's runs do not all beat (or all lose to)
  A's;
* ``improved``: B wins at least nine in ten index-paired runs and the
  medians differ by more than A's quartile spread;
* ``unchanged``: otherwise.

Give each side ten runs or more, alternating which side runs first.  The
exit status is 1 when a pair is worse or a B run failed an output check.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent

Values = Dict[Tuple[str, str], List[float]]


def load(paths: List[str]) -> Tuple[Values, int, List[str]]:
    """Metric values per ``(workload, metric)``, failed runs, warnings."""
    values: Values = {}
    failed = 0
    warnings = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for workload, result in doc["workloads"].items():
            failed += result["failed"] > 0 or not result["correct"]
            if not result["info"].get("valid", True):
                warnings.append(f"{path}: {workload} run is marked invalid")
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values, failed, warnings


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    # Signed so that larger is better for every metric.
    sa, sb = [sign * x for x in a], [sign * x for x in b]
    if a3 - a1 > bound * abs(am) or b3 - b1 > bound * abs(bm):
        if min(sb) > max(sa):
            return "improved"
        if max(sb) < min(sa):
            return "worse"
        return "unresolved"
    gain = sign * (bm - am)
    if gain < -bound * abs(am):
        return "worse"
    wins = sum(y > x for x, y in zip(sa, sb))
    if wins >= 0.9 * min(len(a), len(b)) and gain > a3 - a1:
        return "improved"
    return "unchanged"


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if "--" not in args or args.index("--") == 0 or args[-1] == "--":
        print(__doc__, file=sys.stderr)
        return 2
    cut = args.index("--")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, a_failed, a_warnings = load(args[:cut])
    b, b_failed, b_warnings = load(args[cut + 1:])
    for warning in a_warnings + b_warnings:
        print(f"warning: {warning}")
    if min(len(args[:cut]), len(args[cut + 1:])) < 10:
        print("warning: fewer than ten runs on a side; verdicts are noisy")

    print(f"{'workload':<16} {'metric':<17} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict")
    worse = 0
    workloads = sorted({w for w, _ in a} & {w for w, _ in b})
    for workload in workloads:
        for metric in config["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            result = verdict(a[key], b[key], metric["better"], metric["bound"])
            worse += result == "worse"
            (a1, am, a3), (b1, bm, b3) = quartiles(a[key]), quartiles(b[key])
            change = (bm - am) / am if am else 0.0
            a_text = f"{am:.5g} [{a1:.5g}, {a3:.5g}]"
            b_text = f"{bm:.5g} [{b1:.5g}, {b3:.5g}]"
            print(f"{workload:<16} {metric['name']:<17} {a_text:>30} {b_text:>30} "
                  f"{change:>+8.2%} {metric['bound']:>6.2f}  {result}")
    if b_failed:
        print(f"{b_failed} B run(s) failed an output check")
    return 1 if worse or b_failed else 0


if __name__ == "__main__":
    sys.exit(main())

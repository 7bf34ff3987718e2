"""Command-line entry point: ``python -m repro.harness <experiment>``.

Regenerates the paper's evaluation artefacts as text tables::

    python -m repro.harness fig11            # Figure 11 (prefix-sums)
    python -m repro.harness fig12            # Figure 12 (Algorithm OPT)
    python -m repro.harness model            # Lemma 1 / Thm 2 / Thm 3 / Cor 5
    python -m repro.harness ablation         # design-choice ablations
    python -m repro.harness all --quick      # everything, CI-sized

``--out DIR`` additionally writes each experiment's tables to
``DIR/<name>.txt``.

Long sweeps (fig11/fig12) checkpoint every completed (workload, p,
arrangement, backend) cell to an atomic JSON file; after a crash or
Ctrl-C, ``--resume`` re-runs only the cells that are missing.  Library
errors exit with one line on stderr and a distinct code per error family
(see :func:`repro.errors.exit_code`); ``--traceback`` restores the full
Python traceback.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from ..errors import ReproError, exit_code
from ..reliability.checkpoint import SweepCheckpoint
from .experiments import EXPERIMENTS


def _checkpoint_path(args, name: str) -> Path:
    """Where experiment ``name`` checkpoints: explicit flag, else derived."""
    if args.checkpoint is not None:
        return args.checkpoint
    base = args.out if args.out is not None else Path(".")
    return base / f"{name}.ckpt.json"


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the requested experiments, print/write tables."""
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the paper's evaluation figures as tables.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which artefact to regenerate",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized sweeps (seconds instead of minutes)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to write <name>.txt result files into",
    )
    parser.add_argument(
        "--backend",
        choices=["numpy", "native", "auto"],
        default="numpy",
        help="bulk-execution backend for wall-clock experiments: the fused "
        "NumPy engine, compiled C bulk kernels, or auto-selection",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume a crashed/interrupted sweep from its checkpoint file, "
        "re-measuring only the missing cells (fig11/fig12)",
    )
    parser.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help="checkpoint file for resumable sweeps "
        "(default: <out-or-cwd>/<experiment>.ckpt.json)",
    )
    parser.add_argument(
        "--traceback",
        action="store_true",
        help="re-raise library errors with a full traceback instead of the "
        "one-line summary + family exit code",
    )
    args = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        for name in names:
            runner = EXPERIMENTS[name]
            kwargs = {"quick": args.quick}
            params = inspect.signature(runner).parameters
            if "backend" in params:
                kwargs["backend"] = args.backend
            if "checkpoint" in params:
                checkpoint = SweepCheckpoint(
                    _checkpoint_path(args, name), resume=args.resume
                )
                if checkpoint.loaded_cells:
                    print(
                        f"[resuming {name}: {checkpoint.loaded_cells} "
                        f"completed cell(s) loaded from {checkpoint.path}]",
                        file=sys.stderr,
                    )
                kwargs["checkpoint"] = checkpoint
            result = runner(**kwargs)
            text = result.render()
            print(text)
            print()
            if args.out is not None:
                from .json_report import save_result_json

                args.out.mkdir(parents=True, exist_ok=True)
                path = args.out / f"{result.name}.txt"
                path.write_text(text + "\n")
                save_result_json(result, args.out / f"{result.name}.json")
                print(f"[wrote {path} and {result.name}.json]", file=sys.stderr)
    except ReproError as exc:
        if args.traceback:
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code(exc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

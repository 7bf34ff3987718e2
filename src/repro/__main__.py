"""Top-level command line: inspect, price and export oblivious programs.

::

    python -m repro list                               # the algorithm registry
    python -m repro disasm opt 8 --limit 20            # IR listing
    python -m repro simulate opt 8 --p 256 --w 32 --l 100
    python -m repro analyze prefix-sums 64 --p 256 --arrangement row
    python -m repro export opt 8 /tmp/opt8.json        # save the IR as JSON
    python -m repro run fft 16 --p 128                 # bulk run + verify

(The evaluation harness lives separately: ``python -m repro.harness``.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .algorithms.registry import all_specs, get_spec
from .analysis import analyze_coalescing
from .bulk import BulkExecutor, simulate_bulk
from .errors import ReproError, exit_code
from .harness.report import Table
from .machine import MachineParams
from .machine.cost import lower_bound
from .trace.serialize import save_program


def _machine(args) -> MachineParams:
    return MachineParams(p=args.p, w=args.w, l=args.l)


def cmd_list(args) -> int:
    tab = Table("registered oblivious algorithms", ["name", "complexity", "sizes"])
    for spec in all_specs():
        tab.add_row([spec.name, spec.complexity, ", ".join(map(str, spec.sizes))])
    print(tab.render())
    return 0


def cmd_disasm(args) -> int:
    program = get_spec(args.algorithm).build(args.n)
    print(program.listing(limit=args.limit))
    return 0


def cmd_simulate(args) -> int:
    from .machine import DMM, UMM

    program = get_spec(args.algorithm).build(args.n)
    params = _machine(args)
    machine = (DMM if args.machine == "dmm" else UMM)(params)
    t = program.trace_length
    tab = Table(
        f"{program.name} on the {args.machine.upper()} ({params.describe()})",
        ["arrangement", "time units", "vs Theorem-3 bound"],
    )
    bound = lower_bound(params, t)
    methods = set()
    for arrangement in ("row", "column"):
        rep = simulate_bulk(program, machine, arrangement)
        methods.add(rep.method)
        tab.add_row([arrangement, f"{rep.total_time:,}", f"{rep.total_time / bound:.2f}x"])
    tab.add_note(f"t = {t} accesses; lower bound {bound:,} time units; "
                 f"priced via {'/'.join(sorted(methods))}")
    print(tab.render())
    return 0


def cmd_analyze(args) -> int:
    program = get_spec(args.algorithm).build(args.n)
    params = _machine(args)
    report = analyze_coalescing(program, params, args.arrangement)
    print(report.summary())
    print("stage-count histogram (stages: steps):")
    for stages, steps in sorted(report.histogram().items()):
        print(f"  {stages:6d}: {steps}")
    if args.timeline:
        from .bulk import make_arrangement
        from .machine import UMM, timeline
        from .machine.events import EventSimulator

        arr = make_arrangement(args.arrangement, program.memory_words, params.p)
        trace = arr.trace_addresses(program.address_trace()[: args.timeline])
        log = EventSimulator(UMM(params)).simulate_trace(trace)
        print(f"\nevent schedule of the first {args.timeline} bulk steps:")
        print(timeline(log))
    return 0


def cmd_export(args) -> int:
    program = get_spec(args.algorithm).build(args.n)
    save_program(program, args.path)
    print(f"wrote {program.name} ({program.num_instructions} instructions) "
          f"to {args.path}")
    return 0


def cmd_codegen(args) -> int:
    from .codegen import emit_c, emit_cuda, launch_snippet

    program = get_spec(args.algorithm).build(args.n)
    if args.target == "c":
        text = emit_c(program)
    else:
        text = emit_cuda(program, args.arrangement)
        if args.launch:
            text += "\n" + launch_snippet(program, args.arrangement)
    if args.output is not None:
        args.output.write_text(text)
        print(f"wrote {args.target} source for {program.name} to {args.output}")
    else:
        print(text)
    return 0


def cmd_run(args) -> int:
    spec = get_spec(args.algorithm)
    program = spec.build(args.n)
    rng = np.random.default_rng(args.seed)
    inputs = spec.make_inputs(rng, args.n, args.p)
    executor = BulkExecutor(
        program, args.p, args.arrangement, backend=args.backend,
        guard=args.guard, tile=args.native_tile, threads=args.native_threads,
    )
    outputs = executor.run(inputs).outputs
    spec.check_outputs(inputs, outputs, args.n)
    guarded = ", guarded" if executor.guard is not None else ""
    native = (
        f", tile {executor.tile} x {executor.threads} thread(s)"
        if executor.backend == "native" else ""
    )
    print(f"bulk-ran {spec.name} (n={args.n}) for p={args.p} inputs "
          f"[{args.arrangement}-wise, {executor.backend} backend{guarded}"
          f"{native}]: outputs verified against the reference")
    return 0


def cmd_lint(args) -> int:
    import json

    from .analysis.lint import (
        Severity,
        lint_program,
        lint_registry,
        render_text,
        to_json_doc,
        to_sarif_doc,
    )

    params = _machine(args)
    if args.all:
        reports = lint_registry(
            params=params,
            machine=args.machine,
            arrangement=args.arrangement,
            passes=not args.no_passes,
            codegen=not args.no_codegen,
            schedule=args.schedule,
        )
    else:
        if args.algorithm is None or args.n is None:
            print(
                "error: name an algorithm and a size, or pass --all",
                file=sys.stderr,
            )
            return 2
        spec = get_spec(args.algorithm)
        program = spec.build(args.n)
        span = int(
            spec.make_inputs(np.random.default_rng(0), args.n, 1).shape[1]
        )
        reports = [
            lint_program(
                program,
                params=params,
                machine=args.machine,
                arrangement=args.arrangement,
                input_words=span,
                passes=not args.no_passes,
                codegen=not args.no_codegen,
                schedule=args.schedule,
            )
        ]

    if args.format == "text":
        text = render_text(reports, verbose=not args.quiet)
    elif args.format == "json":
        text = json.dumps(to_json_doc(reports), indent=2, sort_keys=True)
    else:
        text = json.dumps(to_sarif_doc(reports), indent=2)
    if args.output is not None:
        args.output.write_text(text + "\n")
        errors = sum(r.errors for r in reports)
        warnings = sum(r.warnings for r in reports)
        print(
            f"linted {len(reports)} program(s): {errors} errors, "
            f"{warnings} warnings -> {args.output} ({args.format})"
        )
    else:
        print(text)

    if args.fix:
        # Close the loop on what was just reported: propose, prove, canary
        # and promote fixes for the same targets (see docs/AUTOFIX.md).
        from .autofix import autofix_registry

        outcomes = autofix_registry(
            None if args.all else [args.algorithm],
            params=params,
            machine=args.machine,
            arrangement=args.arrangement,
            sizes=None if args.all else [args.n],
            seed=0,
        )
        print()
        for outcome in outcomes:
            print(f"autofix: {outcome.describe()}")

    # Per-severity exit codes: 3 = errors, 4 = warnings, 5 = notes — but
    # only findings at or above --fail-on fail the run, so `--all` in CI
    # does not trip on advisory warnings unless asked to.
    threshold = {
        "note": Severity.NOTE,
        "warning": Severity.WARNING,
        "error": Severity.ERROR,
    }[args.fail_on]
    worst = max(
        (r.worst for r in reports if r.worst is not None), default=None
    )
    if worst is not None and worst >= threshold:
        return {Severity.ERROR: 3, Severity.WARNING: 4, Severity.NOTE: 5}[worst]
    return 0


def cmd_certify_schedule(args) -> int:
    from .analysis.schedule import certify_native_schedule, default_schedule_grid
    from .bulk.arrangement import make_arrangement

    spec = get_spec(args.algorithm)
    program = spec.build(args.n)
    arrangement = make_arrangement(
        args.arrangement, program.memory_words, args.p
    )
    if args.tile is not None or args.threads is not None:
        grid = [(args.tile, args.threads or 1)]
    else:
        grid = list(default_schedule_grid())
    failures = 0
    for tile, threads in grid:
        diags, _, proof = certify_native_schedule(
            program, arrangement, tile=tile, threads=threads, w=args.w
        )
        if proof is not None and proof.certified:
            print(f"  {proof.describe()}")
            continue
        failures += 1
        if proof is not None:
            print(f"  {proof.describe()}")
        for d in diags:
            print(f"    {d.rule_id}: {d.message}")
    shape = f"{spec.name} (n={args.n}) on {args.arrangement} at p={args.p}"
    if failures:
        print(f"{shape}: {failures}/{len(grid)} configuration(s) FAILED "
              f"schedule certification")
        return 3
    print(f"{shape}: all {len(grid)} configuration(s) certified — "
          f"trace-preserving, race-free, forwarding-sound")
    return 0


def cmd_autofix(args) -> int:
    import json

    from .autofix import autofix_registry, promotion_store, save_promotions

    params = _machine(args)

    if args.all:
        names, sizes = None, None
    else:
        if args.algorithm is None or args.n is None:
            print(
                "error: name an algorithm and a size, or pass --all",
                file=sys.stderr,
            )
            return 2
        names, sizes = [args.algorithm], [args.n]

    dry_run = args.dry_run or args.check
    outcomes = autofix_registry(
        names,
        params=params,
        machine=args.machine,
        arrangement=args.arrangement,
        sizes=sizes,
        backend=args.backend,
        dry_run=dry_run,
        canary_p=args.canary_p,
        seed=args.seed,
    )

    for outcome in outcomes:
        print(outcome.describe())
        if args.verbose:
            for verdict in outcome.verdicts:
                print(f"  {verdict.describe()}")
            if outcome.result is not None:
                print(f"  {outcome.result.describe()}")

    fixable = [o for o in outcomes if o.fixable]
    promoted = [o for o in outcomes if o.promoted]
    print(
        f"\n{len(outcomes)} program(s): {len(fixable)} with a verified "
        f"cost-improving fix, {len(promoted)} promoted"
        + (" (dry run)" if dry_run else "")
    )

    if args.json is not None:
        doc = {
            "format": "repro-autofix",
            "version": 1,
            "dry_run": dry_run,
            "outcomes": [
                {
                    "program": o.name,
                    "from_arrangement": o.from_arrangement,
                    "final_arrangement": o.final_arrangement,
                    "applied": list(o.applied),
                    "fixable": o.fixable,
                    "promoted": o.promoted,
                    "cost_before": o.cost_before,
                    "cost_after": o.cost_after,
                    "verdicts": [v.describe() for v in o.verdicts],
                }
                for o in outcomes
            ],
        }
        args.json.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(outcomes)} outcome(s) to {args.json}")

    if args.save is not None:
        count = save_promotions(args.save)
        print(
            f"saved {count} promotion(s) to {args.save} "
            f"(serve shards pick these up via REPRO_AUTOFIX_PROMOTIONS)"
        )

    if args.check:
        # CI gate: a provable, strictly cost-improving fix sitting
        # unapplied fails the build — the registry must stay fixpoint-clean.
        if fixable:
            names_ = ", ".join(o.name for o in fixable)
            print(
                f"check failed: {len(fixable)} program(s) have a proven "
                f"cost-improving fix left unapplied: {names_}",
                file=sys.stderr,
            )
            return 1
        regressed = [
            p for p in promotion_store().promotions() if p.improvement <= 0
        ]
        if regressed:
            print(
                f"check failed: {len(regressed)} installed promotion(s) do "
                "not improve certified cost",
                file=sys.stderr,
            )
            return 1
        print("check passed: no unapplied fixes, no regressing promotions")
    return 0


def cmd_codegen_cache(args) -> int:
    from .codegen import cache_stats, clear_cache

    if args.clear:
        removed = clear_cache()
        print(f"cleared {removed} cached kernel(s)")
    from .codegen.cache import cache_dir

    # Deterministically ordered key/value lines (diff-stable in CI and
    # docs); the location line is separate so the counters diff cleanly
    # across machines.
    for key, value in cache_stats().as_dict().items():
        print(f"{key}: {value}")
    print(f"cache_dir: {cache_dir()}")
    return 0


def cmd_incidents(args) -> int:
    from .reliability import incident_summary, incidents

    summary = incident_summary()
    if not summary:
        print("no incidents recorded in this process")
        return 0
    for kind, count in summary.items():  # already sorted by kind
        print(f"{kind}: {count}")
    if args.log:
        print()
        for incident in incidents():
            print(incident.describe())
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .serve import (
        BulkServer,
        ServeConfig,
        closed_loop,
        input_pool,
        open_loop,
        render_reports,
    )
    from .serve.policy import FixedPolicy, make_policy

    if not args.bench:
        print(
            "repro serve currently ships the self-driving benchmark only; "
            "run with --bench (the serving API itself is `repro.serve."
            "BulkServer` / `repro.serve.ShardedServer` — see "
            "docs/SERVING.md)."
        )
        return 0

    if args.shards > 0:
        return _serve_bench_sharded(args)

    workload, n = args.workload, args.n
    from .serve.policy import backend_lane_speedup

    policy = make_policy(
        args.policy, w=args.warp, l=args.l,
        speedup=backend_lane_speedup(args.backend, args.native_threads),
    )
    config = ServeConfig(
        max_batch=args.max_batch,
        warp=args.warp,
        latency=args.l,
        max_linger=args.max_linger / 1e3,
        max_pending=args.max_pending,
        policy=policy,
        backend=args.backend,
        guard=args.guard,
        native_tile=args.native_tile,
        native_threads=args.native_threads,
    )
    baseline_config = ServeConfig(
        max_batch=1,
        warp=args.warp,
        latency=args.l,
        max_linger=0.0,
        max_pending=args.max_pending,
        policy=FixedPolicy(1),
        pad_to_warp=False,
        backend=args.backend,
        guard=args.guard,
        native_tile=args.native_tile,
        native_threads=args.native_threads,
    )

    async def bench() -> int:
        pool = input_pool(workload, n, seed=args.seed)
        reports = []
        async with BulkServer(config) as server:
            if args.mode == "open":
                reports.append(await open_loop(
                    server, workload, n, rps=args.rps,
                    duration=args.duration, inputs=pool,
                    label=f"{policy.describe()}",
                ))
            else:
                reports.append(await closed_loop(
                    server, workload, n, clients=args.clients,
                    duration=args.duration, inputs=pool,
                    label=f"{policy.describe()}",
                ))
            stats = server.stats()
        if not args.no_baseline:
            async with BulkServer(baseline_config) as baseline:
                reports.append(await closed_loop(
                    baseline, workload, n, clients=args.clients,
                    duration=min(args.duration, args.baseline_duration),
                    inputs=pool, label="single-lane",
                ))
        print(render_reports(
            f"repro serve --bench: {workload} n={n} "
            f"[{config.backend} backend, linger {args.max_linger:g} ms, "
            f"max batch {config.max_batch}]",
            reports,
        ))
        occupancy = stats["histograms"].get("batch.occupancy", {})
        print(
            f"\nbatches: {stats['counters'].get('batches.dispatched', 0)}, "
            f"mean occupancy {occupancy.get('mean', 0.0):.2f}, "
            f"pad lanes {stats['counters'].get('lanes.padded', 0)}, "
            f"rejected {stats['counters'].get('requests.rejected_overload', 0)}"
        )
        if len(reports) == 2 and reports[1].throughput_rps > 0:
            ratio = reports[0].throughput_rps / reports[1].throughput_rps
            print(f"batched throughput = {ratio:.1f}x single-lane dispatch")
        if args.json is not None:
            from .harness.trajectory import bench_record, write_bench

            records = [bench_record(
                bench="serving", workload=workload, n=n,
                p=config.max_batch, backend=config.backend, shards=0,
                method=f"{args.mode}-loop:{r.label}", seconds=args.duration,
                throughput_rps=r.throughput_rps,
            ) for r in reports]
            if len(reports) == 2 and reports[1].throughput_rps > 0:
                records[0]["derived_x"] = (
                    reports[0].throughput_rps / reports[1].throughput_rps
                )
            write_bench(args.json, records)
            print(f"wrote {len(records)} trajectory record(s) to {args.json}")
        return 0

    return asyncio.run(bench())


def _serve_bench_sharded(args) -> int:
    """``repro serve --shards N --bench``: sharded vs one-shard capacity.

    SIGTERM/SIGINT during the run trigger a *graceful drain*: load
    generation stops, every in-flight batch completes (or is recovered),
    shard workers are retired cleanly (arenas unlinked by their owner, no
    resource-tracker leaks), and the process exits ``128 + signum`` —
    ``143`` for SIGTERM, ``130`` for SIGINT.
    """
    import asyncio
    import os
    import signal as signal_module

    from .serve import ShardConfig, ShardedServer, closed_loop, input_pool, render_reports

    workload, n = args.workload, args.n

    def config(shards: int, *, supervised: bool = True) -> ShardConfig:
        supervise = supervised and not args.no_supervise
        return ShardConfig(
            shards=shards,
            slots=args.slots,
            max_batch=args.max_batch,
            warp=args.warp,
            latency=args.l,
            max_linger=args.max_linger / 1e3,
            max_pending=args.max_pending,
            policy=args.policy,
            backend=args.backend,
            guard=None if args.guard == "off" else args.guard,
            native_tile=args.native_tile,
            native_threads=args.native_threads,
            supervise=supervise,
            min_shards=args.min_shards if supervise else None,
            max_shards=args.max_shards if supervise else None,
        )

    drained_by: dict = {}

    async def capacity(shards: int, *, supervised: bool = True):
        pool = input_pool(workload, n, seed=args.seed)
        loop = asyncio.get_running_loop()
        load_task = None

        def on_signal(signum: int) -> None:
            # First signal: remember it and cancel load generation — the
            # server context manager below then drains in-flight work
            # before the workers are stopped.
            drained_by.setdefault("signum", signum)
            if load_task is not None:
                load_task.cancel()

        installed = []
        for sig in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(sig, on_signal, sig)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            async with ShardedServer(config(shards, supervised=supervised)) as server:
                load_task = asyncio.ensure_future(closed_loop(
                    server, workload, n, clients=args.clients,
                    duration=args.duration, inputs=pool,
                    label=f"shards={shards}",
                ))
                try:
                    report = await load_task
                except asyncio.CancelledError:
                    report = None
                return report, server.stats()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    sharded, stats = asyncio.run(capacity(args.shards))
    if "signum" in drained_by:
        signum = drained_by["signum"]
        print(
            f"\nsignal {signum}: drained in-flight work and retired "
            f"{len(stats['shards'])} shard(s) cleanly; exiting {128 + signum}"
        )
        return 128 + signum
    reports = [sharded]
    if not args.no_baseline and args.shards != 1:
        baseline, _ = asyncio.run(capacity(1, supervised=False))
        if "signum" in drained_by:
            return 128 + drained_by["signum"]
        reports.append(baseline)

    cpus = os.cpu_count() or 1
    print(render_reports(
        f"repro serve --bench: {workload} n={n} "
        f"[{args.backend} backend, {args.shards} shard(s), "
        f"{args.clients} closed-loop clients, host cpus={cpus}]",
        reports,
    ))
    per_shard = {
        shard_id: info["batches"] for shard_id, info in stats["shards"].items()
    }
    print(f"\nbatches per shard: {per_shard}, "
          f"deaths {stats['counters'].get('shards.deaths', 0)}, "
          f"re-dispatched {stats['counters'].get('requests.redispatched', 0)}")
    sup = stats.get("supervisor", {})
    if sup.get("enabled"):
        print(f"supervisor: live {sup['live']} "
              f"(bounds [{sup['min_shards']}, {sup['max_shards']}]), "
              f"respawns {stats['counters'].get('shards.respawns', 0)}, "
              f"wedged {stats['counters'].get('shards.wedged', 0)}, "
              f"quarantined {sup['quarantined']}, "
              f"scale-ups {stats['counters'].get('shards.scale_ups', 0)}, "
              f"scale-downs {stats['counters'].get('shards.scale_downs', 0)}")
    ratio = None
    if len(reports) == 2 and reports[1].throughput_rps > 0:
        ratio = reports[0].throughput_rps / reports[1].throughput_rps
        print(f"{args.shards} shards = {ratio:.2f}x one shard "
              f"(host parallelism ceiling: {cpus} cpu(s))")
    if args.json is not None:
        from .harness.trajectory import bench_record, write_bench

        records = [bench_record(
            bench="serving-sharded", workload=workload, n=n,
            p=args.max_batch, backend=args.backend,
            shards=args.shards if r is reports[0] else 1,
            method="closed-loop", seconds=args.duration,
            throughput_rps=r.throughput_rps,
        ) for r in reports]
        if ratio is not None:
            records[0]["derived_x"] = ratio
        write_bench(args.json, records)
        print(f"wrote {len(records)} trajectory record(s) to {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Oblivious-algorithm bulk-execution toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the algorithm registry").set_defaults(
        fn=cmd_list
    )

    def add_algo(p):
        p.add_argument("algorithm", help="registry name (see `list`)")
        p.add_argument("n", type=int, help="problem size")

    p = sub.add_parser("disasm", help="print a program's IR listing")
    add_algo(p)
    p.add_argument("--limit", type=int, default=40)
    p.set_defaults(fn=cmd_disasm)

    def add_machine(p):
        p.add_argument("--p", type=int, default=256, help="threads / inputs")
        p.add_argument("--w", type=int, default=32, help="memory width")
        p.add_argument("--l", type=int, default=100, help="access latency")

    p = sub.add_parser("simulate", help="price a bulk run in UMM/DMM time units")
    add_algo(p)
    add_machine(p)
    p.add_argument("--machine", choices=["umm", "dmm"], default="umm")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analyze", help="coalescing analysis of a bulk trace")
    add_algo(p)
    add_machine(p)
    p.add_argument("--arrangement", choices=["row", "column"], default="column")
    p.add_argument(
        "--timeline",
        type=int,
        default=0,
        metavar="STEPS",
        help="also draw the event schedule of the first STEPS bulk steps",
    )
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("export", help="save a program's IR as JSON")
    add_algo(p)
    p.add_argument("path", type=Path)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("codegen", help="emit C99 or CUDA C for a program")
    add_algo(p)
    p.add_argument("--target", choices=["c", "cuda"], default="cuda")
    p.add_argument("--arrangement", choices=["row", "column"], default="column")
    p.add_argument("--launch", action="store_true",
                   help="append host launch code (cuda target)")
    p.add_argument("-o", "--output", type=Path, default=None)
    p.set_defaults(fn=cmd_codegen)

    p = sub.add_parser("run", help="bulk-run an algorithm and verify outputs")
    add_algo(p)
    p.add_argument("--p", type=int, default=64)
    p.add_argument("--arrangement", choices=["row", "column"], default="column")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--backend",
        choices=["numpy", "native", "auto"],
        default="numpy",
        help="execution backend: fused NumPy engine, compiled C bulk "
        "kernel, or auto (native when a compiler is available)",
    )
    p.add_argument(
        "--guard",
        choices=["off", "spot"],
        default="off",
        help="guarded execution: 'spot' bit-checks sampled lanes of native "
        "runs against the NumPy engine and degrades gracefully on mismatch",
    )
    p.add_argument("--native-tile", type=int, default=None, metavar="LANES",
                   help="native backend: lanes per tile slab (default: "
                   "REPRO_NATIVE_TILE, then the library default)")
    p.add_argument("--native-threads", type=int, default=None, metavar="N",
                   help="native backend: OpenMP threads over lane tiles "
                   "(default: REPRO_NATIVE_THREADS, then 1; "
                   "degrades to 1 without OpenMP)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "lint",
        help="statically certify programs: bounds, pass equivalence, "
        "cost tables, emitted code (see docs/LINT.md)",
    )
    p.add_argument("algorithm", nargs="?", default=None,
                   help="registry name (see `list`); omit with --all")
    p.add_argument("n", nargs="?", type=int, default=None, help="problem size")
    p.add_argument("--all", action="store_true",
                   help="lint every registry algorithm at every "
                   "registered size")
    add_machine(p)
    p.add_argument("--machine", choices=["umm", "dmm"], default="umm")
    p.add_argument("--arrangement",
                   choices=["row", "column", "padded-row"], default="column")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text")
    p.add_argument("-o", "--output", type=Path, default=None,
                   help="write the report to a file instead of stdout")
    p.add_argument("--fail-on", choices=["note", "warning", "error"],
                   default="error",
                   help="lowest severity that fails the run (exit 3/4/5 "
                   "for errors/warnings/notes)")
    p.add_argument("--no-passes", action="store_true",
                   help="skip the pass-equivalence proofs")
    p.add_argument("--no-codegen", action="store_true",
                   help="skip the emitted-code certification")
    p.add_argument("--schedule", action="store_true",
                   help="also certify the native tiled/threaded kernel "
                   "schedule over the default tile grid: trace "
                   "preservation, race freedom, forwarding soundness "
                   "(OBL-S70x; docs/SCHEDULE.md)")
    p.add_argument("--quiet", action="store_true",
                   help="omit the proved-certificate lines (text format)")
    p.add_argument("--fix", action="store_true",
                   help="after reporting, run the autofix pipeline on the "
                   "same targets: propose fixes for the fixable findings, "
                   "prove them equivalent and cheaper, canary and promote "
                   "(see docs/AUTOFIX.md)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "certify-schedule",
        help="statically certify the native tiled/threaded kernel schedule "
        "for one program: trace preservation, race freedom, forwarding "
        "soundness (docs/SCHEDULE.md)",
    )
    add_algo(p)
    p.add_argument("--p", type=int, default=256, help="lanes to certify for")
    p.add_argument("--w", type=int, default=32,
                   help="warp width for the span cross-check")
    p.add_argument("--arrangement",
                   choices=["row", "column", "padded-row"], default="column")
    p.add_argument("--tile", type=int, default=None, metavar="LANES",
                   help="certify one tile size (default: the full "
                   "default tile grid)")
    p.add_argument("--threads", type=int, default=None, metavar="N",
                   help="certify one thread count (with --tile)")
    p.set_defaults(fn=cmd_certify_schedule)

    p = sub.add_parser(
        "autofix",
        help="closed-loop lint fixing: propose rewrites from fix-it hints, "
        "prove them equivalent and strictly cheaper, canary against the "
        "incumbent, promote into the executor path (docs/AUTOFIX.md)",
    )
    p.add_argument("algorithm", nargs="?", default=None,
                   help="registry name (see `list`); omit with --all")
    p.add_argument("n", nargs="?", type=int, default=None, help="problem size")
    p.add_argument("--all", action="store_true",
                   help="run over every registry algorithm at every "
                   "registered size")
    add_machine(p)
    p.add_argument("--machine", choices=["umm", "dmm"], default="umm")
    p.add_argument("--arrangement",
                   choices=["row", "column", "padded-row"], default="column")
    p.add_argument("--backend", choices=["numpy", "native", "auto"],
                   default="numpy",
                   help="backend the canary runs candidates on")
    p.add_argument("--dry-run", action="store_true",
                   help="propose and fully verify but never canary, "
                   "promote, or record incidents")
    p.add_argument("--check", action="store_true",
                   help="CI gate (implies --dry-run): exit 1 if any "
                   "proven cost-improving fix is left unapplied or an "
                   "installed promotion regresses certified cost")
    p.add_argument("--canary-p", type=int, default=None, metavar="LANES",
                   help="canary batch size (default: --p, the priced "
                   "configuration)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true",
                   help="also print every per-candidate verdict")
    p.add_argument("--json", type=Path, default=None, metavar="PATH",
                   help="write machine-readable outcomes to PATH")
    p.add_argument("--save", type=Path, default=None, metavar="PATH",
                   help="persist installed promotions to PATH "
                   "(loaded by other processes via "
                   "REPRO_AUTOFIX_PROMOTIONS=PATH)")
    p.set_defaults(fn=cmd_autofix)

    p = sub.add_parser(
        "codegen-cache",
        help="inspect or clear the compiled-kernel cache",
    )
    p.add_argument("--clear", action="store_true", help="delete all entries")
    p.add_argument(
        "--stats", action="store_true", help="print statistics (the default)"
    )
    p.set_defaults(fn=cmd_codegen_cache)

    p = sub.add_parser(
        "incidents",
        help="per-kind summary of this process' reliability incident log",
    )
    p.add_argument(
        "--log", action="store_true", help="also print the full incident log"
    )
    p.set_defaults(fn=cmd_incidents)

    p = sub.add_parser(
        "serve",
        help="micro-batching serving layer (self-driving benchmark mode)",
    )
    p.add_argument("--bench", action="store_true",
                   help="run the load generator and print a latency/"
                   "throughput table")
    p.add_argument("--workload", default="opt", help="registry algorithm")
    p.add_argument("--n", type=int, default=24, help="problem size")
    p.add_argument("--rps", type=float, default=2000.0,
                   help="open-loop arrival rate (requests/second)")
    p.add_argument("--duration", type=float, default=5.0,
                   help="seconds of load per configuration")
    p.add_argument("--mode", choices=["open", "closed"], default="open",
                   help="open loop (fixed arrival rate) or closed loop "
                   "(fixed concurrency)")
    p.add_argument("--clients", type=int, default=64,
                   help="closed-loop concurrency (also the baseline's)")
    p.add_argument("--policy", default="adaptive",
                   help="batching policy: adaptive | single | full | "
                   "an integer target")
    p.add_argument("--max-batch", type=int, default=256,
                   help="largest bulk dispatch (executor p cap)")
    p.add_argument("--max-linger", type=float, default=2.0, metavar="MS",
                   help="micro-batching linger window in milliseconds")
    p.add_argument("--max-pending", type=int, default=4096,
                   help="per-queue backpressure bound")
    p.add_argument("--warp", type=int, default=32,
                   help="warp width w for padding and the cost model")
    p.add_argument("--l", type=int, default=100,
                   help="modelled memory latency l for the adaptive policy")
    p.add_argument("--backend", choices=["numpy", "native", "auto"],
                   default="numpy")
    p.add_argument("--guard", choices=["off", "spot"], default="off")
    p.add_argument("--native-tile", type=int, default=None, metavar="LANES",
                   help="native backend: lanes per tile slab per executor")
    p.add_argument("--native-threads", type=int, default=None, metavar="N",
                   help="native backend: OpenMP threads per executor "
                   "(per shard with --shards; keep shards x threads within "
                   "the host's cores)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-baseline", action="store_true",
                   help="skip the single-lane (batch-size-1) comparison run")
    p.add_argument("--baseline-duration", type=float, default=2.0,
                   help="cap on the baseline run's duration (seconds)")
    p.add_argument("--shards", type=int, default=0,
                   help="serve through N worker processes with shared-"
                   "memory batching (0 = in-process BulkServer); with "
                   "--bench, compares N shards against one shard")
    p.add_argument("--slots", type=int, default=4,
                   help="in-flight batch slots per (shard, workload) "
                   "shared-memory arena")
    p.add_argument("--min-shards", type=int, default=None, metavar="N",
                   help="autoscaler floor: drain-and-retire idle shards "
                   "down to N (default: --shards, i.e. fixed fleet)")
    p.add_argument("--max-shards", type=int, default=None, metavar="N",
                   help="autoscaler ceiling: spawn shards up to N when p95 "
                   "backlog exceeds the cost-model threshold (default: "
                   "--shards)")
    p.add_argument("--no-supervise", action="store_true",
                   help="disable the shard supervisor (no heartbeats, no "
                   "respawn, no circuit breaker, no autoscaling)")
    p.add_argument("--json", type=Path, default=None, metavar="PATH",
                   help="also write machine-readable BENCH records "
                   "(repro-bench trajectory JSON) to PATH")
    p.set_defaults(fn=cmd_serve)

    parser.add_argument(
        "--traceback",
        action="store_true",
        help="re-raise library errors with a full traceback instead of the "
        "one-line summary + family exit code",
    )
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        if args.traceback:
            raise
        # One line to stderr, distinct exit code per error family — shell
        # callers branch on $? without parsing messages.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code(exc)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, the Unix way.
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(141)  # 128 + SIGPIPE


if __name__ == "__main__":
    raise SystemExit(main())

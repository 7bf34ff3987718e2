"""The paper's evaluation, regenerated (Figures 11 & 12 + model validation).

Each ``run_*`` function reproduces one evaluation artefact and returns an
:class:`ExperimentResult` holding paper-style tables plus the raw series
(for the bench suite's assertions).  Scaling substitutions relative to the
paper's GTX Titan runs are noted on each table and catalogued in
EXPERIMENTS.md.

The CPU baseline is measured directly up to ``cpu_cap`` inputs and
extrapolated linearly beyond (marked ``*``): the per-input work is constant
by construction, and the measured region's linear fit is checked before
extrapolating — mirroring the paper's own observation that "the computing
time of the CPU is linear to p".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.polygon import build_opt
from ..algorithms.prefix_sums import build_prefix_sums
from ..baselines.cpu import SequentialBaseline
from ..bulk.engine import BulkExecutor
from ..bulk.kernels import opt_bulk, prefix_sums_bulk
from ..bulk.simulate import simulate_bulk
from ..errors import WorkloadError
from ..machine.cost import (
    column_wise_time,
    lower_bound,
    opt_trace_length,
    prefix_sums_trace_length,
    row_wise_time,
)
from ..machine.dmm import DMM
from ..machine.params import MachineParams
from ..machine.umm import UMM
from ..reliability.checkpoint import SweepCheckpoint
from ..reliability.faults import inject
from ..trace.ir import Program
from .fit import AffineFit, fit_affine
from .report import Table, format_ratio, format_seconds
from .sweep import cap_by_memory, p_sweep
from .timing import measure
from .workloads import opt_inputs, prefix_sum_inputs

__all__ = [
    "ExperimentResult",
    "Series",
    "run_fig11",
    "run_fig12",
    "run_model_validation",
    "run_ablation",
    "run_grid",
    "EXPERIMENTS",
]


@dataclass
class Series:
    """One measured curve of a figure: time (s) per swept ``p``."""

    label: str
    p_values: List[int] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    extrapolated: List[bool] = field(default_factory=list)

    def add(self, p: int, t: float, *, extrapolated: bool = False) -> None:
        """Append one measured (or extrapolated) point."""
        self.p_values.append(p)
        self.times.append(t)
        self.extrapolated.append(extrapolated)

    def fit(self) -> AffineFit:
        """Affine summary ``T(p) = A + B·p`` over the measured points."""
        return fit_affine(self.p_values, self.times)

    def time_at(self, p: int) -> float:
        """The recorded time at a swept ``p`` (KeyError-style on misses)."""
        return self.times[self.p_values.index(p)]


@dataclass
class ExperimentResult:
    """Tables + raw series of one reproduced artefact."""

    name: str
    tables: List[Table] = field(default_factory=list)
    series: Dict[str, Series] = field(default_factory=dict)
    fits: Dict[str, AffineFit] = field(default_factory=dict)

    def render(self, *, plots: bool = True) -> str:
        """All tables, optional log-log plots, and fits as one text block."""
        parts = [t.render() for t in self.tables]
        if plots and self.series:
            parts.extend(self._render_plots())
        if self.fits:
            parts.append("affine fits T(p) = A + B*p (paper style):")
            parts.extend(
                f"  {k:30s} {v.paper_style()}   (r^2 = {v.r_squared:.4f})"
                for k, v in sorted(self.fits.items())
            )
        return "\n\n".join(parts)

    def _render_plots(self) -> List[str]:
        """One log-log chart per series group (the figures' visual shape)."""
        from .plot import PlotSeries, ascii_loglog

        groups: Dict[str, List[str]] = {}
        for key in self.series:
            prefix = key.rsplit("/", 1)[0]
            groups.setdefault(prefix, []).append(key)
        out: List[str] = []
        for prefix in sorted(groups):
            keys = sorted(groups[prefix])
            plot_series = [
                PlotSeries(
                    label=k.rsplit("/", 1)[1],
                    xs=self.series[k].p_values,
                    ys=self.series[k].times,
                )
                for k in keys
                if self.series[k].p_values
            ]
            if len(plot_series) >= 2:
                out.append(
                    ascii_loglog(
                        plot_series,
                        title=f"{self.name} {prefix}: computing time vs p (log-log)",
                        ylabel="seconds",
                    )
                )
        return out


# -- shared machinery -----------------------------------------------------------

def _sweep_cell(
    checkpoint: Optional[SweepCheckpoint],
    key: str,
    compute: Callable[[], dict],
) -> dict:
    """One checkpointable unit of sweep work.

    A completed cell is served from the checkpoint without re-measuring;
    a fresh cell is measured, recorded (atomic write), then returned — so
    a crash between cells loses nothing and a crash *inside* a cell loses
    only that cell.  ``harness.cell`` is the chaos suite's fault site for
    simulating mid-sweep crashes.
    """
    if checkpoint is not None and checkpoint.done(key):
        return checkpoint.value(key)
    inject("harness.cell")
    value = compute()
    if checkpoint is not None:
        checkpoint.record(key, value)
    return value


def _cpu_series(
    program: Program,
    make_inputs: Callable[[int], np.ndarray],
    ps: Sequence[int],
    *,
    cpu_cap: int,
    repeats: int,
    checkpoint: Optional[SweepCheckpoint] = None,
    prefix: str = "",
) -> Series:
    """Measure the per-input-in-turn baseline; extrapolate past ``cpu_cap``."""
    series = Series(label="cpu")
    baseline = SequentialBaseline(program)
    measured_p = [p for p in ps if p <= cpu_cap] or [min(ps)]
    rate: Optional[float] = None
    for p in ps:
        if p in measured_p or p <= cpu_cap:

            def compute(p: int = p) -> dict:
                inputs = make_inputs(p)
                t = measure(
                    lambda: baseline.run(inputs), repeats=repeats, warmup=0
                ).best
                return {"t": t}

            t = _sweep_cell(checkpoint, f"{prefix}p{p}/cpu", compute)["t"]
            series.add(p, t)
            rate = t / p
        else:
            if rate is None:  # pragma: no cover - ps always has a small entry
                raise WorkloadError("cpu_cap below the smallest swept p")
            series.add(p, rate * p, extrapolated=True)
    return series


def _gpu_series(
    program: Program,
    make_inputs: Callable[[int], np.ndarray],
    ps: Sequence[int],
    arrangement: str,
    *,
    repeats: int,
    backend: str = "numpy",
    checkpoint: Optional[SweepCheckpoint] = None,
    prefix: str = "",
) -> Series:
    """Measure the bulk executor for one arrangement and backend."""
    series = Series(label=f"gpu-{arrangement}")
    for p in ps:

        def compute(p: int = p) -> dict:
            inputs = make_inputs(p)
            ex = BulkExecutor(program, p, arrangement, backend=backend)
            t = measure(lambda: ex.run(inputs), repeats=repeats).best
            return {"t": t}

        cell = _sweep_cell(
            checkpoint, f"{prefix}p{p}/{arrangement}/{backend}", compute
        )
        series.add(p, cell["t"])
    return series


def _figure_table(
    title: str,
    ps: Sequence[int],
    cpu: Series,
    row: Series,
    col: Series,
) -> Tuple[Table, Table]:
    """Render the (1) computing-time and (2) speedup tables of a figure."""
    time_tab = Table(title + " — computing time", ["p", "cpu", "gpu-row", "gpu-col"])
    speed_tab = Table(
        title + " — GPU speedup over CPU", ["p", "row-wise", "column-wise"]
    )
    for i, p in enumerate(ps):
        star = "*" if cpu.extrapolated[i] else ""
        time_tab.add_row(
            [
                p,
                format_seconds(cpu.times[i]) + star,
                format_seconds(row.times[i]),
                format_seconds(col.times[i]),
            ]
        )
        speed_tab.add_row(
            [
                p,
                format_ratio(cpu.times[i] / row.times[i]),
                format_ratio(cpu.times[i] / col.times[i]) + star,
            ]
        )
    time_tab.add_note("* = CPU point extrapolated from the measured linear region")
    return time_tab, speed_tab


# -- Figure 11: prefix-sums -------------------------------------------------------

def run_fig11(
    ns: Sequence[int] = (32, 1024, 8192),
    *,
    p_start: int = 64,
    word_budget: int = 16_000_000,
    cpu_cap: int = 1024,
    repeats: int = 3,
    quick: bool = False,
    backend: str = "numpy",
    checkpoint: Optional[SweepCheckpoint] = None,
) -> ExperimentResult:
    """Figure 11: bulk prefix-sums — CPU vs GPU row-wise vs GPU column-wise.

    Paper scale: ``n ∈ {32, 1K, 32K}``, ``p`` up to 8M on a GTX Titan.  Here
    ``n`` defaults to {32, 1K, 8K} and ``p`` is capped by ``word_budget``
    (both documented in EXPERIMENTS.md); ``quick=True`` shrinks everything
    for CI.  ``backend`` selects the bulk engine (``--backend native``
    reruns the GPU curves on the compiled C kernels).  ``checkpoint`` makes
    the sweep resumable: every (n, p, series) cell is persisted as it
    completes and skipped on a resumed run.
    """
    if quick:
        ns = tuple(n for n in ns if n <= 1024) or (32,)
        word_budget = min(word_budget, 1_000_000)
        cpu_cap = min(cpu_cap, 128)
        repeats = 1
    if checkpoint is not None:
        checkpoint.ensure_meta({
            "experiment": "fig11", "ns": list(ns), "p_start": p_start,
            "word_budget": word_budget, "cpu_cap": cpu_cap,
            "repeats": repeats, "backend": backend,
        })
    result = ExperimentResult(name="fig11")
    for n in ns:
        program = build_prefix_sums(n)
        p_max = cap_by_memory(n, word_budget)
        ps = p_sweep(p_start, p_max)
        prefix = f"n{n}/"

        def make_inputs(p: int, n: int = n) -> np.ndarray:
            return prefix_sum_inputs(n, p)

        cpu = _cpu_series(
            program, make_inputs, ps, cpu_cap=cpu_cap, repeats=repeats,
            checkpoint=checkpoint, prefix=prefix,
        )
        row = _gpu_series(
            program, make_inputs, ps, "row", repeats=repeats, backend=backend,
            checkpoint=checkpoint, prefix=prefix,
        )
        col = _gpu_series(
            program, make_inputs, ps, "column", repeats=repeats,
            backend=backend, checkpoint=checkpoint, prefix=prefix,
        )
        t_tab, s_tab = _figure_table(f"Fig11 prefix-sums n={n}", ps, cpu, row, col)
        t_tab.add_note(
            f"paper sweeps p up to 8M on GTX Titan; here p <= {p_max} "
            f"(word budget {word_budget}); gpu backend: {backend}"
        )
        result.tables.extend([t_tab, s_tab])
        result.series[f"n{n}/cpu"] = cpu
        result.series[f"n{n}/row"] = row
        result.series[f"n{n}/col"] = col
        result.fits[f"n{n}/row"] = row.fit()
        result.fits[f"n{n}/col"] = col.fit()
    return result


# -- Figure 12: Algorithm OPT ------------------------------------------------------

def run_fig12(
    ns: Sequence[int] = (8, 16, 32),
    *,
    p_start: int = 64,
    word_budget: int = 8_000_000,
    cpu_cap: int = 64,
    repeats: int = 3,
    quick: bool = False,
    backend: str = "numpy",
    checkpoint: Optional[SweepCheckpoint] = None,
) -> ExperimentResult:
    """Figure 12: bulk Algorithm OPT — CPU vs GPU row-wise vs column-wise.

    Paper scale: 8-, 64- and 512-gons, ``p`` up to 4M.  An unrolled 512-gon
    program has ~10⁸ instructions — far beyond a pure-Python engine — so the
    defaults scale to 8/16/32-gons, preserving the ``t = Θ(n³)`` growth
    between curves (documented in EXPERIMENTS.md).  ``backend`` selects the
    bulk engine for the GPU curves; ``checkpoint`` makes the sweep
    resumable cell by cell (see :func:`run_fig11`).
    """
    if quick:
        ns = tuple(n for n in ns if n <= 8) or (6,)
        word_budget = min(word_budget, 500_000)
        cpu_cap = min(cpu_cap, 64)
        repeats = 1
    if checkpoint is not None:
        checkpoint.ensure_meta({
            "experiment": "fig12", "ns": list(ns), "p_start": p_start,
            "word_budget": word_budget, "cpu_cap": cpu_cap,
            "repeats": repeats, "backend": backend,
        })
    result = ExperimentResult(name="fig12")
    for n in ns:
        program = build_opt(n)
        p_max = cap_by_memory(2 * n * n, word_budget)
        ps = p_sweep(p_start, p_max)
        prefix = f"n{n}/"

        def make_inputs(p: int, n: int = n) -> np.ndarray:
            return opt_inputs(n, p)

        cpu = _cpu_series(
            program, make_inputs, ps, cpu_cap=cpu_cap, repeats=repeats,
            checkpoint=checkpoint, prefix=prefix,
        )
        row = _gpu_series(
            program, make_inputs, ps, "row", repeats=repeats, backend=backend,
            checkpoint=checkpoint, prefix=prefix,
        )
        col = _gpu_series(
            program, make_inputs, ps, "column", repeats=repeats,
            backend=backend, checkpoint=checkpoint, prefix=prefix,
        )
        t_tab, s_tab = _figure_table(f"Fig12 OPT {n}-gons", ps, cpu, row, col)
        t_tab.add_note(
            f"paper uses 8/64/512-gons up to p = 4M; here {n}-gons with "
            f"p <= {p_max}; gpu backend: {backend}"
        )
        result.tables.extend([t_tab, s_tab])
        result.series[f"n{n}/cpu"] = cpu
        result.series[f"n{n}/row"] = row
        result.series[f"n{n}/col"] = col
        result.fits[f"n{n}/row"] = row.fit()
        result.fits[f"n{n}/col"] = col.fit()
    return result


# -- analytical validation ---------------------------------------------------------

def run_model_validation(
    *,
    p_values: Sequence[int] = (64, 256, 1024),
    w: int = 32,
    l: int = 100,
    quick: bool = False,
) -> ExperimentResult:
    """Lemma 1, Theorem 2, Theorem 3 and Corollary 5: simulator vs formulas.

    For every registered algorithm and every swept ``p``, the UMM simulator
    prices the bulk trace for both arrangements; the table shows the exact
    closed-form predictions alongside.  Row-wise must equal ``(p+l-1)·t``,
    column-wise ``(p/w+l-1)·t`` (aligned case), and both must respect the
    ``Ω(pt/w + lt)`` bound.
    """
    from ..algorithms.registry import all_specs

    if quick:
        p_values = tuple(p for p in p_values if p <= 256)
    result = ExperimentResult(name="model-validation")

    tab = Table(
        "Theorem 2 / Theorem 3 — simulated vs predicted time units",
        ["algorithm", "n", "t", "p", "row sim", "row pred", "col sim", "col pred", "bound", "col/bound"],
    )
    for spec in all_specs():
        n = spec.sizes[0] if quick else spec.sizes[min(1, len(spec.sizes) - 1)]
        program = spec.build(n)
        t = program.trace_length
        for p in p_values:
            params = MachineParams(p=p, w=w, l=l)
            row = simulate_bulk(program, params, "row")
            col = simulate_bulk(program, params, "column")
            tab.add_row(
                [
                    spec.name,
                    n,
                    t,
                    p,
                    row.total_time,
                    row_wise_time(params, t),
                    col.total_time,
                    column_wise_time(params, t),
                    lower_bound(params, t),
                    f"{col.optimality_ratio:.2f}",
                ]
            )
    tab.add_note("row sim == row pred and col sim == col pred hold exactly "
                 "(n >= w caveat: for small memories several threads share "
                 "an address group, making row-wise cheaper than the bound-case "
                 "formula; see tests)")
    result.tables.append(tab)

    lem = Table(
        "Lemma 1 / Corollary 5 — exact instantiations",
        ["artefact", "n", "t(n)", "p", "row-wise", "column-wise"],
    )
    for label, n, t_fn in (
        ("Lemma 1 (prefix-sums)", 64, prefix_sums_trace_length),
        ("Corollary 5 (OPT)", 16, opt_trace_length),
    ):
        t = t_fn(n)
        for p in p_values:
            params = MachineParams(p=p, w=w, l=l)
            lem.add_row(
                [label, n, t, p, row_wise_time(params, t), column_wise_time(params, t)]
            )
    result.tables.append(lem)
    return result


# -- ablations -----------------------------------------------------------------------

def run_ablation(
    *,
    p: int = 512,
    n: int = 64,
    repeats: int = 3,
    quick: bool = False,
) -> ExperimentResult:
    """Design-choice ablations: width, latency, DMM vs UMM, IR vs kernels."""
    if quick:
        p, n, repeats = 128, 32, 1
    result = ExperimentResult(name="ablation")
    program = build_prefix_sums(n)
    t = program.trace_length

    wt = Table("abl-width: column-wise time units vs w (p=%d, l=100)" % p,
               ["w", "col time", "row time", "row/col"])
    for w in (1, 2, 4, 8, 16, 32, 64):
        if p % w:
            continue
        params = MachineParams(p=p, w=w, l=100)
        col = simulate_bulk(program, params, "column").total_time
        row = simulate_bulk(program, params, "row").total_time
        wt.add_row([w, col, row, f"{row / col:.2f}"])
    result.tables.append(wt)

    lt = Table("abl-latency: time units vs l (p=%d, w=32)" % p,
               ["l", "col time", "row time", "bound"])
    for l in (1, 10, 100, 400):
        params = MachineParams(p=p, w=32, l=l)
        col = simulate_bulk(program, params, "column").total_time
        row = simulate_bulk(program, params, "row").total_time
        lt.add_row([l, col, row, lower_bound(params, t)])
    result.tables.append(lt)

    # DMM vs UMM: with n coprime to w the row-wise warp access is
    # conflict-free on the DMM (distinct banks) yet fully serialised on the
    # UMM (distinct address groups) — the Section II contrast.
    n_odd = n + 1
    prog_odd = build_prefix_sums(n_odd)
    params = MachineParams(p=p, w=32, l=100)
    dm = Table("abl-dmm: DMM vs UMM time units (prefix-sums n=%d)" % n_odd,
               ["machine", "row-wise", "column-wise"])
    for name, sim in (("UMM", UMM(params)), ("DMM", DMM(params))):
        rowt = simulate_bulk(prog_odd, sim, "row").total_time
        colt = simulate_bulk(prog_odd, sim, "column").total_time
        dm.add_row([name, rowt, colt])
    dm.add_note("row-wise: conflict-free on the DMM (distinct banks) but one "
                "address group per thread on the UMM")
    result.tables.append(dm)

    # IR engine vs hand-written kernels (wall clock).
    inputs = prefix_sum_inputs(n, p)
    ex = BulkExecutor(program, p, "column")
    t_engine = measure(lambda: ex.run(inputs), repeats=repeats).best
    t_kernel = measure(lambda: prefix_sums_bulk(inputs), repeats=repeats).best
    n_opt = 8 if quick else 12
    opt_prog = build_opt(n_opt)
    opt_in = opt_inputs(n_opt, p)
    opt_w = opt_in[:, : n_opt * n_opt].reshape(p, n_opt, n_opt)
    ex_opt = BulkExecutor(opt_prog, p, "column")
    t_opt_engine = measure(lambda: ex_opt.run(opt_in), repeats=repeats).best
    t_opt_kernel = measure(lambda: opt_bulk(opt_w), repeats=repeats).best
    vm = Table("abl-vm: IR engine vs hand-vectorised kernel (wall clock)",
               ["workload", "IR engine", "kernel", "overhead"])
    vm.add_row([f"prefix-sums n={n} p={p}", format_seconds(t_engine),
                format_seconds(t_kernel), f"{t_engine / t_kernel:.1f}x"])
    vm.add_row([f"OPT n={n_opt} p={p}", format_seconds(t_opt_engine),
                format_seconds(t_opt_kernel), f"{t_opt_engine / t_opt_kernel:.1f}x"])
    result.tables.append(vm)

    # Execution backends: fused NumPy vs the compiled C bulk kernel, timing
    # the engine phase proper (the native execute includes its own
    # gather/scatter; the NumPy load/unpack are outside it).
    from ..codegen.compile import have_compiler, native_supported

    bk = Table(
        f"abl-backend: engine phase, OPT n={n_opt} p={p} (wall clock)",
        ["backend", "execute", "vs fused"],
    )
    ex_opt.load(opt_in)
    t_fused = measure(ex_opt.execute, repeats=repeats).best
    bk.add_row(["numpy (fused)", format_seconds(t_fused), "1.0x"])
    if have_compiler() and native_supported(opt_prog, ex_opt.arrangement):
        ex_nat = BulkExecutor(opt_prog, p, "column", backend="native")
        ex_nat.load(opt_in)
        t_native = measure(ex_nat.execute, repeats=repeats).best
        ex_nat.close()
        bk.add_row(["native (compiled C)", format_seconds(t_native),
                    f"{t_fused / t_native:.1f}x"])
    else:
        bk.add_note("native backend skipped: no C compiler on PATH")
    result.tables.append(bk)
    return result


def run_grid(
    *,
    block_size: int = 64,
    resident_blocks: int = 42,  # GTX Titan: 2688 cores / 64-thread blocks
    w: int = 32,
    l: int = 400,
    n: int = 1024,
    quick: bool = False,
) -> ExperimentResult:
    """Model-level Figure 11/12 shape: the time-shared grid sweep.

    The paper runs ``p`` far beyond the 2688 physical threads "in a time
    sharing manner"; this experiment reproduces the resulting
    flat-then-linear curve *in exact UMM time units*: cost is one bulk
    round until ``p`` fills the resident threads, then grows with the round
    count, while the 1-thread RAM baseline is linear from the start.

    Note the model-level ceiling: a saturated UMM serves ``w`` words per
    time unit, so the time-unit speedup over the serial RAM approaches
    ``w`` — the >150× of the paper's figures is a *hardware throughput*
    ratio (GPU vs CPU clocks/IPC), which wall-clock benches cover instead.
    """
    from ..bulk.grid import GridConfig, grid_time_units

    if quick:
        n = min(n, 64)
        resident_blocks = min(resident_blocks, 4)
    cfg = GridConfig(block_size=block_size, resident_blocks=resident_blocks)
    program = build_prefix_sums(n)
    t = program.trace_length
    result = ExperimentResult(name="grid")
    tab = Table(
        f"time-shared bulk prefix-sums (n={n}, resident={cfg.resident_threads} "
        f"threads, w={w}, l={l}) — time units",
        ["p", "rounds", "grid col", "grid row", "1-thread RAM", "RAM/col"],
    )
    p = block_size
    while p <= cfg.resident_threads * (4 if quick else 64):
        col = grid_time_units(program, p, cfg, w, l, "column")
        row = grid_time_units(program, p, cfg, w, l, "row")
        ram = p * t
        tab.add_row(
            [p, cfg.num_rounds(p), col, row, ram, f"{ram / col:.2f}"]
        )
        p *= 4
    tab.add_note(
        "flat while p <= resident threads, then linear in rounds; the "
        "RAM/col ratio saturates near w (the model's bandwidth ceiling)"
    )
    result.tables.append(tab)
    return result


def run_coalescing(
    *, p: int = 256, w: int = 32, l: int = 100, quick: bool = False
) -> ExperimentResult:
    """Registry-wide coalescing audit: every algorithm, both arrangements.

    Static analysis only (no execution): fraction of perfectly coalesced
    bulk steps and bandwidth efficiency — the quantities that decide which
    side of Theorem 2 a deployment lands on.  The expected picture is
    uniform: column-wise is 100% coalesced for *every* oblivious algorithm
    (that is the construction's whole point), row-wise never is.
    """
    from ..algorithms.registry import all_specs
    from ..analysis import analyze_coalescing

    if quick:
        p = min(p, 64)
    params = MachineParams(p=p, w=w, l=l)
    result = ExperimentResult(name="coalescing")
    tab = Table(
        f"coalescing audit (p={p}, w={w})",
        ["algorithm", "n", "t", "col coalesced", "col bw eff",
         "row coalesced", "row bw eff"],
    )
    for spec in all_specs():
        n = spec.sizes[0] if quick else spec.sizes[min(1, len(spec.sizes) - 1)]
        program = spec.build(n)
        col = analyze_coalescing(program, params, "column")
        row = analyze_coalescing(program, params, "row")
        tab.add_row(
            [
                spec.name,
                n,
                program.trace_length,
                f"{col.coalesced_fraction:.0%}",
                f"{col.bandwidth_efficiency:.0%}",
                f"{row.coalesced_fraction:.0%}",
                f"{row.bandwidth_efficiency:.0%}",
            ]
        )
    tab.add_note("column-wise is 100% coalesced by construction for every "
                 "oblivious algorithm; row-wise wastes ~(w-1)/w of each line")
    result.tables.append(tab)
    return result


#: CLI registry: experiment id -> runner.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig11": run_fig11,
    "fig12": run_fig12,
    "model": run_model_validation,
    "ablation": run_ablation,
    "grid": run_grid,
    "coalescing": run_coalescing,
}

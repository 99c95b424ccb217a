"""The paper's artefacts, each declared once.

:data:`ARTEFACTS` maps each artefact ID, in ``repro all`` order, to an
:class:`Artefact`: its title and columns, the machines it simulates as a
function of its x-axis ``points``, its default workloads, the function
that turns the results into the paper's rows and headline scalars, and
the column ``repro figure`` draws as a bar chart.  Each tabulate
function's docstring states the paper claim it reproduces; each
``summary`` holds the headline scalars beside the paper's values.

:meth:`Artefact.compute` submits the workload x machine cross product as
one :func:`~repro.experiments.runner.sweep` batch on the ``session=`` it is
given (default: the runner's default session), which memoises per spec,
serves the session's result store and fans uncached specs out over a
process pool when ``jobs > 1``.  Figures 5-12 simulate the same
conventional-vs-SAMIE suite, so one session pays for it once.  A caller
that wants fewer points replaces them, e.g.
``dataclasses.replace(ARTEFACTS["figure1"], points=((1, 128), (64, 2)))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.energy.cacti import CactiModel, cache_access_time
from repro.experiments.report import FigureResult
from repro.experiments.runner import (
    MACHINE_CONV128,
    MACHINE_SAMIE,
    MACHINE_UNBOUNDED,
    machine_arb,
    machine_samie_unbounded_shared,
    sweep,
)
from repro.workloads.spec2000 import SPEC2000_PROFILES


@dataclass(frozen=True)
class Artefact:
    """One paper figure or table and how to regenerate it.

    ``machines(points)`` lists the ``(machine_key, lsq_spec)`` machines
    every workload runs on.  ``tabulate(points, results)`` receives
    ``{workload: [result per machine]}`` in workload order and returns
    ``(rows, summary)`` or ``(rows, summary, notes)``.  ``bar`` is the
    ``(column, reference line)`` drawn as a bar chart, if any.
    """

    figure_id: str
    title: str
    columns: tuple[str, ...]
    machines: Callable
    tabulate: Callable
    points: tuple = ()
    workloads: tuple[str, ...] = tuple(sorted(SPEC2000_PROFILES))
    bar: tuple[str, float | None] | None = None

    def compute(
        self,
        workloads: list[str] | None = None,
        instructions: int | None = None,
        warmup: int | None = None,
        jobs: int | None = 1,
        mem: tuple | dict | None = None,
        session=None,
    ) -> FigureResult:
        """Regenerate the artefact over ``workloads`` (default: its own)."""
        names = list(self.workloads if workloads is None else workloads)
        machines = self.machines(self.points)
        res = sweep(names, machines, instructions, warmup, jobs=jobs, mem=mem,
                    session=session) if machines else {}
        results = {w: [res[(w, m[0])] for m in machines] for w in names}
        return FigureResult(self.figure_id, self.title, list(self.columns),
                            *self.tabulate(self.points, results))


_LSQ_PARTS = ["distrib", "shared", "addrbuffer", "bus"]
_AREA_PARTS = ["distrib", "shared", "addrbuffer"]
_SAVING_COLUMNS = ("bench", "conventional_pJ_per_insn", "samie_pJ_per_insn", "saving_pct")


def _suite_pair(points) -> tuple:
    return (MACHINE_CONV128, MACHINE_SAMIE)


def _arb_sweep(points) -> list:
    machines = [MACHINE_UNBOUNDED]
    for banks, addrs in points:
        machines.append(machine_arb(banks, addrs, 128))
        # the paper's "half" series halves the allowed in-flight memory
        # instructions (for 1x128 this is "1 bank with 64 addresses")
        machines.append(machine_arb(banks, max(1, addrs // 2), 64, tag="half"))
    return machines


def _savings(results, per_insn) -> tuple[list, dict]:
    """Rows ``[bench, conventional, samie, saving %]`` of ``per_insn(result)``
    plus the SPEC-average row, and ``{bench: saving %}``."""
    rows = []
    savings = {}
    for w, (base, samie) in results.items():
        e_base = per_insn(base)
        e_samie = per_insn(samie)
        saving = 100.0 * (1.0 - e_samie / e_base) if e_base else 0.0
        savings[w] = saving
        rows.append([w, e_base, e_samie, saving])
    rows.append(["SPEC", 0.0, 0.0, sum(savings.values()) / len(savings)])
    return rows, savings


def _dcache_per_insn(r) -> float:
    return r.cache_energy_pj.get("dcache", 0.0) / r.instructions


def _shares(parts: dict, components: list[str]) -> list[float]:
    """Percent share of each component in ``parts``."""
    total = sum(parts.get(c, 0.0) for c in components)
    return [100.0 * parts.get(c, 0.0) / total if total else 0.0 for c in components]


def _figure1(points, results):
    """Figure 1: IPC of the ARB relative to an unbounded LSQ.

    Sweeps the ARB geometry 1x128 ... 128x1 (banks x addresses-per-bank) and
    the paper's "half number of addresses" variant, reporting mean IPC as a
    percentage of the unbounded-LSQ machine.  The paper's qualitative result:
    performance collapses as banking grows (64x2 loses ~28% IPC) and halving
    the addresses costs ~16% even for the fully-associative configuration.
    """

    def mean_relative(i: int) -> float:
        total = sum((rs[i].ipc / rs[0].ipc if rs[0].ipc else 0.0) for rs in results.values())
        return total / len(results)

    rows = [[f"{banks}x{addrs}", 100.0 * mean_relative(2 * k + 1), 100.0 * mean_relative(2 * k + 2)]
            for k, (banks, addrs) in enumerate(points)]
    summary = {
        "pct_64x2": rows[points.index((64, 2))][1] if (64, 2) in points else 0.0,
        "paper_pct_64x2": 72.0,
        "pct_half_1x128": rows[0][2],
        "paper_pct_half_1x128": 84.0,
    }
    return rows, summary, f"mean over {len(results)} workloads"


def _figure3(points, results):
    """Figure 3: mean occupancy of an unbounded SharedLSQ per benchmark.

    Runs SAMIE with ``shared_entries=None`` for the three DistribLSQ
    geometries the paper compares (128x1, 64x2, 32x4) and reports the mean
    number of SharedLSQ entries in use per cycle.  The paper's findings: 128x1
    needs a large SharedLSQ for many programs; 64x2 is only slightly worse
    than 32x4, motivating the 64x2 choice.
    """
    rows = [[w] + [r.shared_occupancy_mean for r in rs] for w, rs in results.items()]
    avg = ["SPEC"] + [sum(col) / len(col) for col in zip(*(row[1:] for row in rows))]
    rows.append(avg)
    summary = {
        "mean_128x1": avg[1],
        "mean_64x2": avg[2],
        "mean_32x4": avg[3],
        "paper_note_64x2_close_to_32x4": 1.0,
    }
    return rows, summary


def _figure4(points, results):
    """Figure 4: programs that avoid the AddrBuffer 99% of the time.

    For each benchmark, take the 99th percentile of per-cycle SharedLSQ
    occupancy under an unbounded SharedLSQ and the 64x2 DistribLSQ: a program
    whose p99 occupancy is <= N entries would not touch the AddrBuffer during
    99% of its execution with an N-entry SharedLSQ.  The figure is the
    cumulative count of programs versus N.  Paper: 16 of 26 programs need <=4
    entries, 21 need <=8, 22 need <=12 (hence the 8-entry choice).
    """
    p99s = {w: rs[0].shared_occupancy_p99 for w, rs in results.items()}
    rows = [[n, sum(1 for v in p99s.values() if v <= n)] for n in points]
    count_at = dict(rows)
    summary = {
        "programs_at_4": count_at.get(4, 0),
        "paper_programs_at_4": 16,
        "programs_at_8": count_at.get(8, 0),
        "paper_programs_at_8": 21,
        "programs_at_12": count_at.get(12, 0),
        "paper_programs_at_12": 22,
        "total_programs": len(results),
    }
    notes = "per-benchmark p99 occupancies: " + ", ".join(
        f"{w}={v}" for w, v in sorted(p99s.items()))
    return rows, summary, notes


def _figure5(points, results):
    """Figure 5: % IPC loss of SAMIE-LSQ versus the conventional LSQ.

    Positive = SAMIE slower.  Paper: average 0.6% loss; ammp/apsi/mgrid lose
    the most (SharedLSQ saturation -> AddrBuffer waits -> deadlock flushes);
    facerec/fma3d *gain* because SAMIE can hold more than 128 in-flight
    memory instructions when they distribute across banks.
    """
    rows = []
    losses = []
    worst = ("", -1e9)
    for w, (base, samie) in results.items():
        loss = 100.0 * (base.ipc - samie.ipc) / base.ipc if base.ipc else 0.0
        losses.append(loss)
        if loss > worst[1]:
            worst = (w, loss)
        rows.append([w, base.ipc, samie.ipc, loss])
    avg = sum(losses) / len(losses)
    rows.append(["SPEC", 0.0, 0.0, avg])
    return rows, {
        "avg_ipc_loss_pct": avg,
        "paper_avg_ipc_loss_pct": 0.6,
        "worst_loss_pct": worst[1],
        "paper_worst_bench_is_ammp": 1.0 if worst[0] == "ammp" else 0.0,
    }


def _figure6(points, results):
    """Figure 6: deadlock-avoidance pipeline flushes per million cycles.

    Paper: ammp is the only program with a significant rate (~250/Mcycle);
    everything else is near zero.
    """
    rows = []
    rates = {}
    for w, (_, samie) in results.items():
        rate = 1e6 * samie.deadlock_flushes / samie.cycles if samie.cycles else 0.0
        rates[w] = rate
        rows.append([w, samie.deadlock_flushes, rate])
    top = max(rates, key=rates.get)
    return rows, {
        "max_rate": rates[top],
        "max_is_ammp": 1.0 if top == "ammp" else 0.0,
        "paper_ammp_rate": 250.0,
        "benches_above_50": sum(1 for r in rates.values() if r > 50.0),
    }


def _figure7(points, results):
    """Figure 7: LSQ dynamic energy, conventional versus SAMIE.

    The paper reports absolute nJ over 100M instructions; we report nJ per
    1000 committed instructions (the run lengths differ), which preserves the
    figure's shape and the headline: SAMIE saves 82% of LSQ dynamic energy on
    average, and the expensive programs are exactly the high-SharedLSQ ones.
    """
    rows, savings = _savings(results, lambda r: r.lsq_energy_total_pj / r.instructions)
    return rows, {
        "avg_saving_pct": rows[-1][3],
        "paper_avg_saving_pct": 82.0,
        "benches_where_samie_wins": sum(1 for s in savings.values() if s > 0),
        "total_benches": len(savings),
    }


def _figure8(points, results):
    """Figure 8: dynamic-energy breakdown of the SAMIE-LSQ.

    Per benchmark: the fraction of SAMIE LSQ energy spent in the DistribLSQ,
    the SharedLSQ, the AddrBuffer and the distribution bus.  Paper: most
    programs spend their energy in the DistribLSQ and the bus; ammp, apsi,
    facerec and mgrid show noticeable SharedLSQ/AddrBuffer shares.
    """
    pressure = ("ammp", "apsi", "facerec", "mgrid")
    rows = [[w] + _shares(samie.lsq_energy_pj, _LSQ_PARTS) for w, (_, samie) in results.items()]
    pressure_shared = [r[2] + r[3] for r in rows if r[0] in pressure]
    others = [r[2] + r[3] for r in rows if r[0] not in pressure]
    return rows, {
        "mean_shared+ab_pct_pressure_benches": (
            sum(pressure_shared) / len(pressure_shared) if pressure_shared else 0.0
        ),
        "mean_shared+ab_pct_others": sum(others) / len(others) if others else 0.0,
    }


def _figure9(points, results):
    """Figure 9: L1 data-cache dynamic energy, conventional versus SAMIE.

    SAMIE accesses whose entry caches the line's physical location skip the
    tag check and read a single way (276 pJ vs 1009 pJ).  Paper: 42% average
    saving, consistent across benchmarks; ammp/swim highest (~58%), sixtrack
    lowest (~21%).
    """
    rows, savings = _savings(results, _dcache_per_insn)
    return rows, {
        "avg_saving_pct": rows[-1][3],
        "paper_avg_saving_pct": 42.0,
        "min_saving_bench_is_sixtrack": 1.0 if min(savings, key=savings.get) == "sixtrack" else 0.0,
        "min_saving_pct": min(savings.values()),
        "paper_min_saving_pct": 21.0,
        "max_saving_pct": max(savings.values()),
        "paper_max_saving_pct": 58.0,
    }


def _figure10(points, results):
    """Figure 10: data-TLB dynamic energy, conventional versus SAMIE.

    SAMIE entries cache the DTLB translation, so later instructions in the
    entry skip the DTLB entirely; translations also survive L1 evictions
    (unlike the presentBit), so the TLB saving fraction exceeds the D-cache
    one.  Paper: 73% average saving; ammp highest (84%), mcf lowest (55%).
    """
    rows, savings = _savings(results, lambda r: r.cache_energy_pj.get("dtlb", 0.0) / r.instructions)
    _, dcache_savings = _savings(results, _dcache_per_insn)
    return rows, {
        "avg_saving_pct": rows[-1][3],
        "paper_avg_saving_pct": 73.0,
        "benches_tlb_saving_above_dcache": sum(
            1 for w in savings if savings[w] >= dcache_savings[w]),
        "total_benches": len(savings),
    }


def _figure11(points, results):
    """Figure 11: accumulated active LSQ area (the paper's leakage proxy).

    Both designs power-gate unused entries (conventional: in-use + 4;
    SAMIE: in-use + one spare per bank/structure, in-use slots + 1).  Paper:
    the accumulated active areas are very similar, slightly favourable to
    SAMIE (~5%), and some integer programs (tiny LSQ occupancy) are the worst
    case for SAMIE because of the always-powered spare entries.
    """
    rows = []
    total_base = 0.0
    total_samie = 0.0
    int_worse = 0
    for w, (base, samie) in results.items():
        a_base = sum(base.area_um2_cycles.values()) / base.instructions
        a_samie = sum(samie.area_um2_cycles.values()) / samie.instructions
        total_base += a_base
        total_samie += a_samie
        if a_samie > a_base:
            int_worse += 1
        rows.append([w, a_base, a_samie, 100.0 * (1.0 - a_samie / a_base) if a_base else 0.0])
    overall = 100.0 * (1.0 - total_samie / total_base) if total_base else 0.0
    rows.append(["SPEC", total_base / len(results), total_samie / len(results), overall])
    return rows, {
        "overall_samie_advantage_pct": overall,
        "paper_overall_samie_advantage_pct": 5.0,
        "benches_where_samie_worse": int_worse,
    }


def _figure12(points, results):
    """Figure 12: active-area breakdown for the SAMIE-LSQ.

    Per benchmark: share of accumulated active area in the DistribLSQ, the
    SharedLSQ and the AddrBuffer.  Paper: DistribLSQ dominates; the SharedLSQ
    share is noticeable only for the high-pressure programs (ammp, apsi, art,
    facerec, mgrid).
    """
    rows = [[w] + _shares(samie.area_um2_cycles, _AREA_PARTS) for w, (_, samie) in results.items()]
    shared_share = {r[0]: r[2] for r in rows}
    pressure = ["ammp", "apsi", "art", "facerec", "mgrid"]
    mean_pressure = sum(shared_share[w] for w in pressure if w in shared_share) / max(
        1, sum(1 for w in pressure if w in shared_share)
    )
    others = [v for w, v in shared_share.items() if w not in pressure]
    return rows, {
        "mean_shared_pct_pressure_benches": mean_pressure,
        "mean_shared_pct_others": sum(others) / len(others) if others else 0.0,
    }


def _table1(points, results):
    """Table 1 and the §3.6 structure delays (CACTI model, no simulation).

    Table 1: cache access time for conventional accesses versus accesses where
    the physical cache line is known, over eight cache configurations.
    Section 3.6: delays of the SAMIE structures versus the conventional LSQ
    (DistribLSQ 0.714 ns, SharedLSQ 0.617 ns, AddrBuffer 0.319 ns, 128-entry
    conventional LSQ 0.881 ns = 23% above SAMIE).
    """
    rows = []
    for size, assoc, ports, paper_conv, paper_known in points:
        conv = cache_access_time(size, assoc, 32, ports, way_known=False)
        known = cache_access_time(size, assoc, 32, ports, way_known=True)
        rows.append([
            f"{size // 1024}KB {assoc}way {ports}p",
            conv,
            known,
            100.0 * (1 - known / conv),
            paper_conv,
            paper_known,
            100.0 * (1 - paper_known / paper_conv),
        ])
    m = CactiModel()
    return rows, {
        "distrib_total_ns": m.distrib_total_delay(),
        "paper_distrib_total_ns": 0.714,
        "shared_ns": m.shared_lsq_delay(),
        "paper_shared_ns": 0.617,
        "addrbuffer_ns": m.addrbuffer_delay(),
        "paper_addrbuffer_ns": 0.319,
        "conventional128_ns": m.conventional_lsq_delay(),
        "paper_conventional128_ns": 0.881,
        "baseline_over_samie": m.conventional_lsq_delay() / m.distrib_total_delay(),
        "paper_baseline_over_samie": 1.23,
    }


ARTEFACTS: dict[str, Artefact] = {a.figure_id: a for a in (
    Artefact(
        "figure1", "ARB IPC relative to unbounded LSQ (banks x addresses)",
        ("config", "ipc_pct", "ipc_pct_half_addresses"), _arb_sweep, _figure1,
        # the paper's x-axis: (banks, addresses per bank)
        points=((1, 128), (2, 64), (4, 32), (8, 16), (16, 8), (32, 4), (64, 2), (128, 1)),
        # the ARB sweep is 17 machines per workload, so it runs on a subset
        workloads=("ammp", "applu", "art", "bzip2", "crafty", "equake",
                   "facerec", "gcc", "mcf", "mgrid", "swim", "twolf"),
        bar=("ipc_pct", 100.0)),
    Artefact(
        "figure3", "Mean unbounded-SharedLSQ occupancy per DistribLSQ geometry",
        ("bench", "128x1", "64x2", "32x4"),
        lambda points: [machine_samie_unbounded_shared(b, e) for b, e in points], _figure3,
        # DistribLSQ geometries compared in the paper: (banks, entries per bank)
        points=((128, 1), (64, 2), (32, 4))),
    Artefact(
        "figure4", "Programs not requiring the AddrBuffer 99% of the time",
        ("shared_entries", "num_programs"),
        lambda points: [machine_samie_unbounded_shared(64, 2)], _figure4,
        # SharedLSQ sizes on the paper's x-axis
        points=tuple(range(0, 64, 4))),
    Artefact(
        "figure5", "% IPC loss of SAMIE-LSQ w.r.t. conventional 128-entry LSQ",
        ("bench", "ipc_conventional", "ipc_samie", "ipc_loss_pct"), _suite_pair, _figure5,
        bar=("ipc_loss_pct", 0.0)),
    Artefact(
        "figure6", "Deadlock-avoidance flushes per million cycles (SAMIE-LSQ)",
        ("bench", "flushes", "per_Mcycle"), _suite_pair, _figure6,
        bar=("per_Mcycle", None)),
    Artefact(
        "figure7", "LSQ dynamic energy (pJ per committed instruction)",
        _SAVING_COLUMNS, _suite_pair, _figure7, bar=("saving_pct", None)),
    Artefact(
        "figure8", "SAMIE-LSQ dynamic energy breakdown (%)",
        ("bench", *(f"{c}_pct" for c in _LSQ_PARTS)), _suite_pair, _figure8),
    Artefact(
        "figure9", "L1 D-cache dynamic energy (pJ per committed instruction)",
        _SAVING_COLUMNS, _suite_pair, _figure9, bar=("saving_pct", None)),
    Artefact(
        "figure10", "Data TLB dynamic energy (pJ per committed instruction)",
        _SAVING_COLUMNS, _suite_pair, _figure10, bar=("saving_pct", None)),
    Artefact(
        "figure11", "Accumulated active LSQ area (um^2 x cycles per instruction)",
        ("bench", "conventional", "samie", "samie_advantage_pct"), _suite_pair, _figure11,
        bar=("samie_advantage_pct", 0.0)),
    Artefact(
        "figure12", "SAMIE-LSQ active-area breakdown (%)",
        ("bench", *(f"{c}_pct" for c in _AREA_PARTS)), _suite_pair, _figure12),
    Artefact(
        "table1", "Cache access time: conventional vs physical-line-known (ns)",
        ("config", "conv_ns", "known_ns", "improv_%",
         "paper_conv", "paper_known", "paper_improv_%"),
        lambda points: (), _table1,
        # the paper's Table 1 rows: (size, assoc, ports, paper_conv, paper_known)
        points=(
            (8 * 1024, 2, 2, 0.865, 0.700),
            (8 * 1024, 2, 4, 1.014, 0.875),
            (8 * 1024, 4, 2, 1.008, 0.878),
            (8 * 1024, 4, 4, 1.307, 1.266),
            (32 * 1024, 2, 2, 1.195, 1.092),
            (32 * 1024, 2, 4, 1.551, 1.490),
            (32 * 1024, 4, 2, 1.194, 1.165),
            (32 * 1024, 4, 4, 1.693, 1.693),
        )),
)}

"""Figure 4: programs that avoid the AddrBuffer 99% of the time.

For each benchmark, take the 99th percentile of per-cycle SharedLSQ
occupancy under an unbounded SharedLSQ and the 64x2 DistribLSQ: a program
whose p99 occupancy is <= N entries would not touch the AddrBuffer during
99% of its execution with an N-entry SharedLSQ.  The figure is the
cumulative count of programs versus N.  Paper: 16 of 26 programs need <=4
entries, 21 need <=8, 22 need <=12 (hence the 8-entry choice).
"""

from __future__ import annotations

from repro.experiments.report import FigureResult
from repro.experiments.runner import SimSpec, machine_samie_unbounded_shared, run_many
from repro.workloads.spec2000 import SPEC2000_PROFILES

#: SharedLSQ sizes on the paper's x-axis
ENTRY_STEPS = list(range(0, 64, 4))


def compute(
    workloads: list[str] | None = None,
    instructions: int | None = None,
    warmup: int | None = None,
    jobs: int | None = 1,
    mem: tuple | dict | None = None,
    session=None,
) -> FigureResult:
    """Regenerate Figure 4 (cumulative program counts)."""
    names = workloads if workloads is not None else sorted(SPEC2000_PROFILES)
    machine = machine_samie_unbounded_shared(64, 2)
    specs = [SimSpec.make(w, machine, instructions, warmup, mem=mem) for w in names]
    results = run_many(specs, jobs=jobs, session=session)
    p99s = {s.workload: r.shared_occupancy_p99 for s, r in zip(specs, results)}
    rows = [[n, sum(1 for v in p99s.values() if v <= n)] for n in ENTRY_STEPS]
    count_at = dict(rows)
    summary = {
        "programs_at_4": count_at.get(4, 0),
        "paper_programs_at_4": 16,
        "programs_at_8": count_at.get(8, 0),
        "paper_programs_at_8": 21,
        "programs_at_12": count_at.get(12, 0),
        "paper_programs_at_12": 22,
        "total_programs": len(names),
    }
    return FigureResult(
        figure_id="figure4",
        title="Programs not requiring the AddrBuffer 99% of the time",
        columns=["shared_entries", "num_programs"],
        rows=rows,
        summary=summary,
        notes="per-benchmark p99 occupancies: "
        + ", ".join(f"{w}={v}" for w, v in sorted(p99s.items())),
    )

"""Figure 3: mean occupancy of an unbounded SharedLSQ per benchmark.

Runs SAMIE with ``shared_entries=None`` for the three DistribLSQ
geometries the paper compares (128x1, 64x2, 32x4) and reports the mean
number of SharedLSQ entries in use per cycle.  The paper's findings: 128x1
needs a large SharedLSQ for many programs; 64x2 is only slightly worse
than 32x4, motivating the 64x2 choice.
"""

from __future__ import annotations

from repro.experiments.report import FigureResult
from repro.experiments.runner import SimSpec, machine_samie_unbounded_shared, run_many
from repro.workloads.spec2000 import SPEC2000_PROFILES

#: DistribLSQ geometries compared in the paper (banks, entries/bank)
GEOMETRIES = [(128, 1), (64, 2), (32, 4)]


def compute(
    workloads: list[str] | None = None,
    instructions: int | None = None,
    warmup: int | None = None,
    jobs: int | None = 1,
    mem: tuple | dict | None = None,
    session=None,
) -> FigureResult:
    """Regenerate Figure 3 (one batched workload x geometry sweep)."""
    names = workloads if workloads is not None else sorted(SPEC2000_PROFILES)
    machines = [machine_samie_unbounded_shared(b, e) for b, e in GEOMETRIES]
    specs = [SimSpec.make(w, m, instructions, warmup, mem=mem)
             for w in names for m in machines]
    results = run_many(specs, jobs=jobs, session=session)
    occ = {
        (s.workload, s.machine_key): r.shared_occupancy_mean
        for s, r in zip(specs, results)
    }
    rows = []
    means = {g: [] for g in GEOMETRIES}
    for w in names:
        row: list = [w]
        for (banks, entries), (mkey, _) in zip(GEOMETRIES, machines):
            row.append(occ[(w, mkey)])
            means[(banks, entries)].append(occ[(w, mkey)])
        rows.append(row)
    avg = ["SPEC"] + [sum(means[g]) / len(means[g]) for g in GEOMETRIES]
    rows.append(avg)
    summary = {
        "mean_128x1": avg[1],
        "mean_64x2": avg[2],
        "mean_32x4": avg[3],
        "paper_note_64x2_close_to_32x4": 1.0,
    }
    return FigureResult(
        figure_id="figure3",
        title="Mean unbounded-SharedLSQ occupancy per DistribLSQ geometry",
        columns=["bench", "128x1", "64x2", "32x4"],
        rows=rows,
        summary=summary,
    )

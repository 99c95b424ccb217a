"""Figure 12: active-area breakdown for the SAMIE-LSQ.

Per benchmark: share of accumulated active area in the DistribLSQ, the
SharedLSQ and the AddrBuffer.  Paper: DistribLSQ dominates; the SharedLSQ
share is noticeable only for the high-pressure programs (ammp, apsi, art,
facerec, mgrid).
"""

from __future__ import annotations

from repro.experiments.report import FigureResult
from repro.experiments.runner import suite_pairs

COMPONENTS = ["distrib", "shared", "addrbuffer"]


def compute(
    workloads: list[str] | None = None,
    instructions: int | None = None,
    warmup: int | None = None,
    jobs: int | None = 1,
    mem: tuple | dict | None = None,
    session=None,
) -> FigureResult:
    """Regenerate Figure 12 (percent shares)."""
    pairs = suite_pairs(workloads, instructions, warmup, jobs=jobs, mem=mem, session=session)
    rows = []
    shared_share = {}
    for w, (_, samie) in pairs.items():
        total = sum(samie.area_um2_cycles.get(c, 0.0) for c in COMPONENTS)
        shares = [
            100.0 * samie.area_um2_cycles.get(c, 0.0) / total if total else 0.0
            for c in COMPONENTS
        ]
        shared_share[w] = shares[1]
        rows.append([w] + shares)
    pressure = ["ammp", "apsi", "art", "facerec", "mgrid"]
    mean_pressure = sum(shared_share[w] for w in pressure if w in shared_share) / max(
        1, sum(1 for w in pressure if w in shared_share)
    )
    others = [v for w, v in shared_share.items() if w not in pressure]
    return FigureResult(
        figure_id="figure12",
        title="SAMIE-LSQ active-area breakdown (%)",
        columns=["bench"] + [f"{c}_pct" for c in COMPONENTS],
        rows=rows,
        summary={
            "mean_shared_pct_pressure_benches": mean_pressure,
            "mean_shared_pct_others": sum(others) / len(others) if others else 0.0,
        },
    )

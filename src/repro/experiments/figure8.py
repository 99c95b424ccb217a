"""Figure 8: dynamic-energy breakdown of the SAMIE-LSQ.

Per benchmark: the fraction of SAMIE LSQ energy spent in the DistribLSQ,
the SharedLSQ, the AddrBuffer and the distribution bus.  Paper: most
programs spend their energy in the DistribLSQ and the bus; ammp, apsi,
facerec and mgrid show noticeable SharedLSQ/AddrBuffer shares.
"""

from __future__ import annotations

from repro.experiments.report import FigureResult
from repro.experiments.runner import suite_pairs

COMPONENTS = ["distrib", "shared", "addrbuffer", "bus"]


def compute(
    workloads: list[str] | None = None,
    instructions: int | None = None,
    warmup: int | None = None,
    jobs: int | None = 1,
    mem: tuple | dict | None = None,
    session=None,
) -> FigureResult:
    """Regenerate Figure 8 (percent shares per component)."""
    pairs = suite_pairs(workloads, instructions, warmup, jobs=jobs, mem=mem, session=session)
    rows = []
    pressure_shared = []
    for w, (_, samie) in pairs.items():
        total = sum(samie.lsq_energy_pj.get(c, 0.0) for c in COMPONENTS)
        shares = [
            100.0 * samie.lsq_energy_pj.get(c, 0.0) / total if total else 0.0
            for c in COMPONENTS
        ]
        if w in ("ammp", "apsi", "facerec", "mgrid"):
            pressure_shared.append(shares[1] + shares[2])
        rows.append([w] + shares)
    others = [
        r[2] + r[3] for r in rows if r[0] not in ("ammp", "apsi", "facerec", "mgrid")
    ]
    return FigureResult(
        figure_id="figure8",
        title="SAMIE-LSQ dynamic energy breakdown (%)",
        columns=["bench"] + [f"{c}_pct" for c in COMPONENTS],
        rows=rows,
        summary={
            "mean_shared+ab_pct_pressure_benches": (
                sum(pressure_shared) / len(pressure_shared) if pressure_shared else 0.0
            ),
            "mean_shared+ab_pct_others": sum(others) / len(others) if others else 0.0,
        },
    )

"""Figure 6: deadlock-avoidance pipeline flushes per million cycles.

Paper: ammp is the only program with a significant rate (~250/Mcycle);
everything else is near zero.
"""

from __future__ import annotations

from repro.experiments.report import FigureResult
from repro.experiments.runner import suite_pairs


def compute(
    workloads: list[str] | None = None,
    instructions: int | None = None,
    warmup: int | None = None,
    jobs: int | None = 1,
    mem: tuple | dict | None = None,
    session=None,
) -> FigureResult:
    """Regenerate Figure 6."""
    pairs = suite_pairs(workloads, instructions, warmup, jobs=jobs, mem=mem, session=session)
    rows = []
    rates = {}
    for w, (_, samie) in pairs.items():
        rate = 1e6 * samie.deadlock_flushes / samie.cycles if samie.cycles else 0.0
        rates[w] = rate
        rows.append([w, samie.deadlock_flushes, rate])
    top = max(rates, key=rates.get)
    return FigureResult(
        figure_id="figure6",
        title="Deadlock-avoidance flushes per million cycles (SAMIE-LSQ)",
        columns=["bench", "flushes", "per_Mcycle"],
        rows=rows,
        summary={
            "max_rate": rates[top],
            "max_is_ammp": 1.0 if top == "ammp" else 0.0,
            "paper_ammp_rate": 250.0,
            "benches_above_50": sum(1 for r in rates.values() if r > 50.0),
        },
    )

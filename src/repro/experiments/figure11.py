"""Figure 11: accumulated active LSQ area (the paper's leakage proxy).

Both designs power-gate unused entries (conventional: in-use + 4;
SAMIE: in-use + one spare per bank/structure, in-use slots + 1).  Paper:
the accumulated active areas are very similar, slightly favourable to
SAMIE (~5%), and some integer programs (tiny LSQ occupancy) are the worst
case for SAMIE because of the always-powered spare entries.
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
    """Regenerate Figure 11 (um^2 x cycles per committed instruction)."""
    pairs = suite_pairs(workloads, instructions, warmup, jobs=jobs, mem=mem, session=session)
    rows = []
    total_base = 0.0
    total_samie = 0.0
    int_worse = 0
    for w, (base, samie) in pairs.items():
        a_base = sum(base.area_um2_cycles.values()) / base.instructions
        a_samie = sum(samie.area_um2_cycles.values()) / samie.instructions
        total_base += a_base
        total_samie += a_samie
        if a_samie > a_base:
            int_worse += 1
        rows.append([w, a_base, a_samie, 100.0 * (1.0 - a_samie / a_base) if a_base else 0.0])
    overall = 100.0 * (1.0 - total_samie / total_base) if total_base else 0.0
    rows.append(["SPEC", total_base / len(pairs), total_samie / len(pairs), overall])
    return FigureResult(
        figure_id="figure11",
        title="Accumulated active LSQ area (um^2 x cycles per instruction)",
        columns=["bench", "conventional", "samie", "samie_advantage_pct"],
        rows=rows,
        summary={
            "overall_samie_advantage_pct": overall,
            "paper_overall_samie_advantage_pct": 5.0,
            "benches_where_samie_worse": int_worse,
        },
    )

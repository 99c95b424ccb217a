"""Figure 7: LSQ dynamic energy, conventional versus SAMIE.

The paper reports absolute nJ over 100M instructions; we report nJ per
1000 committed instructions (the run lengths differ), which preserves the
figure's shape and the headline: SAMIE saves 82% of LSQ dynamic energy on
average, and the expensive programs are exactly the high-SharedLSQ ones.
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
    """Regenerate Figure 7."""
    pairs = suite_pairs(workloads, instructions, warmup, jobs=jobs, mem=mem, session=session)
    rows = []
    savings = []
    for w, (base, samie) in pairs.items():
        e_base = base.lsq_energy_total_pj / base.instructions  # pJ per instr
        e_samie = samie.lsq_energy_total_pj / samie.instructions
        saving = 100.0 * (1.0 - e_samie / e_base) if e_base else 0.0
        savings.append(saving)
        rows.append([w, e_base, e_samie, saving])
    avg = sum(savings) / len(savings)
    rows.append(["SPEC", 0.0, 0.0, avg])
    return FigureResult(
        figure_id="figure7",
        title="LSQ dynamic energy (pJ per committed instruction)",
        columns=["bench", "conventional_pJ_per_insn", "samie_pJ_per_insn", "saving_pct"],
        rows=rows,
        summary={
            "avg_saving_pct": avg,
            "paper_avg_saving_pct": 82.0,
            "benches_where_samie_wins": sum(1 for s in savings if s > 0),
            "total_benches": len(savings),
        },
    )

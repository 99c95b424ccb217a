"""Figure 9: L1 data-cache dynamic energy, conventional versus SAMIE.

SAMIE accesses whose entry caches the line's physical location skip the
tag check and read a single way (276 pJ vs 1009 pJ).  Paper: 42% average
saving, consistent across benchmarks; ammp/swim highest (~58%), sixtrack
lowest (~21%).
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
    """Regenerate Figure 9."""
    pairs = suite_pairs(workloads, instructions, warmup, jobs=jobs, mem=mem, session=session)
    rows = []
    savings = {}
    for w, (base, samie) in pairs.items():
        e_base = base.cache_energy_pj.get("dcache", 0.0) / base.instructions
        e_samie = samie.cache_energy_pj.get("dcache", 0.0) / samie.instructions
        saving = 100.0 * (1.0 - e_samie / e_base) if e_base else 0.0
        savings[w] = saving
        rows.append([w, e_base, e_samie, saving])
    avg = sum(savings.values()) / len(savings)
    rows.append(["SPEC", 0.0, 0.0, avg])
    return FigureResult(
        figure_id="figure9",
        title="L1 D-cache dynamic energy (pJ per committed instruction)",
        columns=["bench", "conventional_pJ_per_insn", "samie_pJ_per_insn", "saving_pct"],
        rows=rows,
        summary={
            "avg_saving_pct": avg,
            "paper_avg_saving_pct": 42.0,
            "min_saving_bench_is_sixtrack": 1.0 if min(savings, key=savings.get) == "sixtrack" else 0.0,
            "min_saving_pct": min(savings.values()),
            "paper_min_saving_pct": 21.0,
            "max_saving_pct": max(savings.values()),
            "paper_max_saving_pct": 58.0,
        },
    )

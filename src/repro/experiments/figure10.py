"""Figure 10: data-TLB dynamic energy, conventional versus SAMIE.

SAMIE entries cache the DTLB translation, so later instructions in the
entry skip the DTLB entirely; translations also survive L1 evictions
(unlike the presentBit), so the TLB saving fraction exceeds the D-cache
one.  Paper: 73% average saving; ammp highest (84%), mcf lowest (55%).
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
    """Regenerate Figure 10."""
    pairs = suite_pairs(workloads, instructions, warmup, jobs=jobs, mem=mem, session=session)
    rows = []
    savings = {}
    dcache_savings = {}
    for w, (base, samie) in pairs.items():
        e_base = base.cache_energy_pj.get("dtlb", 0.0) / base.instructions
        e_samie = samie.cache_energy_pj.get("dtlb", 0.0) / samie.instructions
        saving = 100.0 * (1.0 - e_samie / e_base) if e_base else 0.0
        savings[w] = saving
        db = base.cache_energy_pj.get("dcache", 0.0)
        ds = samie.cache_energy_pj.get("dcache", 0.0)
        dcache_savings[w] = 100.0 * (1.0 - (ds / samie.instructions) / (db / base.instructions)) if db else 0.0
        rows.append([w, e_base, e_samie, saving])
    avg = sum(savings.values()) / len(savings)
    rows.append(["SPEC", 0.0, 0.0, avg])
    higher = sum(1 for w in savings if savings[w] >= dcache_savings[w])
    return FigureResult(
        figure_id="figure10",
        title="Data TLB dynamic energy (pJ per committed instruction)",
        columns=["bench", "conventional_pJ_per_insn", "samie_pJ_per_insn", "saving_pct"],
        rows=rows,
        summary={
            "avg_saving_pct": avg,
            "paper_avg_saving_pct": 73.0,
            "benches_tlb_saving_above_dcache": higher,
            "total_benches": len(savings),
        },
    )

"""Table 1 and the §3.6 structure delays (CACTI model, no simulation).

Table 1: cache access time for conventional accesses versus accesses where
the physical cache line is known, over eight cache configurations.
Section 3.6: delays of the SAMIE structures versus the conventional LSQ
(DistribLSQ 0.714 ns, SharedLSQ 0.617 ns, AddrBuffer 0.319 ns, 128-entry
conventional LSQ 0.881 ns = 23% above SAMIE).
"""

from __future__ import annotations

from repro.energy.cacti import CactiModel, cache_access_time
from repro.experiments.report import FigureResult

#: the paper's Table 1 rows: (size, assoc, ports, paper_conv, paper_known)
PAPER_TABLE1 = [
    (8 * 1024, 2, 2, 0.865, 0.700),
    (8 * 1024, 2, 4, 1.014, 0.875),
    (8 * 1024, 4, 2, 1.008, 0.878),
    (8 * 1024, 4, 4, 1.307, 1.266),
    (32 * 1024, 2, 2, 1.195, 1.092),
    (32 * 1024, 2, 4, 1.551, 1.490),
    (32 * 1024, 4, 2, 1.194, 1.165),
    (32 * 1024, 4, 4, 1.693, 1.693),
]

#: §3.6 delays: name -> paper ns
PAPER_DELAYS = {
    "distrib_total": 0.714,
    "shared": 0.617,
    "addrbuffer": 0.319,
    "conventional_128": 0.881,
}


def compute(instructions: int | None = None, warmup: int | None = None,
            jobs: int | None = 1, mem: tuple | dict | None = None,
            session=None) -> FigureResult:
    """Regenerate Table 1 (model vs paper, plus improvement columns).

    ``instructions``, ``warmup``, ``jobs``, ``mem`` and ``session`` are
    accepted for driver-interface uniformity (``repro all --jobs N
    --instructions N ...`` calls every driver the same way) and ignored:
    the CACTI model is closed-form, no simulation to scale or fan out
    and no simulated memory hierarchy to override.
    """
    del instructions, warmup, jobs, mem, session
    rows = []
    for size, assoc, ports, paper_conv, paper_known in PAPER_TABLE1:
        conv = cache_access_time(size, assoc, 32, ports, way_known=False)
        known = cache_access_time(size, assoc, 32, ports, way_known=True)
        rows.append(
            [
                f"{size // 1024}KB {assoc}way {ports}p",
                conv,
                known,
                100.0 * (1 - known / conv),
                paper_conv,
                paper_known,
                100.0 * (1 - paper_known / paper_conv),
            ]
        )
    m = CactiModel()
    summary = {
        "distrib_total_ns": m.distrib_total_delay(),
        "paper_distrib_total_ns": PAPER_DELAYS["distrib_total"],
        "shared_ns": m.shared_lsq_delay(),
        "paper_shared_ns": PAPER_DELAYS["shared"],
        "addrbuffer_ns": m.addrbuffer_delay(),
        "paper_addrbuffer_ns": PAPER_DELAYS["addrbuffer"],
        "conventional128_ns": m.conventional_lsq_delay(),
        "paper_conventional128_ns": PAPER_DELAYS["conventional_128"],
        "baseline_over_samie": m.conventional_lsq_delay() / m.distrib_total_delay(),
        "paper_baseline_over_samie": 1.23,
    }
    return FigureResult(
        figure_id="table1",
        title="Cache access time: conventional vs physical-line-known (ns)",
        columns=[
            "config", "conv_ns", "known_ns", "improv_%",
            "paper_conv", "paper_known", "paper_improv_%",
        ],
        rows=rows,
        summary=summary,
    )

"""Figure 5: % IPC loss of SAMIE-LSQ versus the conventional LSQ.

Positive = SAMIE slower.  Paper: average 0.6% loss; ammp/apsi/mgrid lose
the most (SharedLSQ saturation -> AddrBuffer waits -> deadlock flushes);
facerec/fma3d *gain* because SAMIE can hold more than 128 in-flight
memory instructions when they distribute across banks.
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
    """Regenerate Figure 5."""
    pairs = suite_pairs(workloads, instructions, warmup, jobs=jobs, mem=mem, session=session)
    rows = []
    losses = []
    worst = ("", -1e9)
    for w, (base, samie) in pairs.items():
        loss = 100.0 * (base.ipc - samie.ipc) / base.ipc if base.ipc else 0.0
        losses.append(loss)
        if loss > worst[1]:
            worst = (w, loss)
        rows.append([w, base.ipc, samie.ipc, loss])
    avg = sum(losses) / len(losses)
    rows.append(["SPEC", 0.0, 0.0, avg])
    return FigureResult(
        figure_id="figure5",
        title="% IPC loss of SAMIE-LSQ w.r.t. conventional 128-entry LSQ",
        columns=["bench", "ipc_conventional", "ipc_samie", "ipc_loss_pct"],
        rows=rows,
        summary={
            "avg_ipc_loss_pct": avg,
            "paper_avg_ipc_loss_pct": 0.6,
            "worst_loss_pct": worst[1],
            "paper_worst_bench_is_ammp": 1.0 if worst[0] == "ammp" else 0.0,
        },
    )

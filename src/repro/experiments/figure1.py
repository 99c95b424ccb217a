"""Figure 1: IPC of the ARB relative to an unbounded LSQ.

Sweeps the ARB geometry 1x128 ... 128x1 (banks x addresses-per-bank) and
the paper's "half number of addresses" variant, reporting mean IPC as a
percentage of the unbounded-LSQ machine.  The paper's qualitative result:
performance collapses as banking grows (64x2 loses ~28% IPC) and halving
the addresses costs ~16% even for the fully-associative configuration.

The whole sweep -- reference machine plus two series per geometry, per
workload -- is submitted as one ``run_many`` batch, so ``jobs > 1`` fans
it out over the process pool.
"""

from __future__ import annotations

from repro.experiments.report import FigureResult
from repro.experiments.runner import (
    MACHINE_UNBOUNDED,
    REPRESENTATIVE_WORKLOADS,
    SimSpec,
    machine_arb,
    run_many,
)

#: the paper's x-axis: (banks, addresses per bank)
ARB_CONFIGS = [(1, 128), (2, 64), (4, 32), (8, 16), (16, 8), (32, 4), (64, 2), (128, 1)]


def compute(
    workloads: list[str] | None = None,
    instructions: int | None = None,
    warmup: int | None = None,
    configs: list[tuple[int, int]] | None = None,
    jobs: int | None = 1,
    mem: tuple | dict | None = None,
    session=None,
) -> FigureResult:
    """Regenerate Figure 1 (mean over ``workloads``)."""
    names = workloads if workloads is not None else REPRESENTATIVE_WORKLOADS
    sweep = configs if configs is not None else ARB_CONFIGS
    machines = [MACHINE_UNBOUNDED]
    for banks, addrs in sweep:
        machines.append(machine_arb(banks, addrs, 128))
        # the paper's "half" series halves the allowed in-flight memory
        # instructions (for 1x128 this is "1 bank with 64 addresses")
        machines.append(machine_arb(banks, max(1, addrs // 2), 64, tag="half"))
    specs = [SimSpec.make(w, m, instructions, warmup, mem=mem)
             for m in machines for w in names]
    ipc = {
        (s.workload, s.machine_key): r.ipc
        for s, r in zip(specs, run_many(specs, jobs=jobs, session=session))
    }
    ref = {w: ipc[(w, MACHINE_UNBOUNDED[0])] for w in names}

    def mean_relative(machine_key: str) -> float:
        total = sum(
            (ipc[(w, machine_key)] / ref[w] if ref[w] else 0.0) for w in names
        )
        return total / len(names)

    rows = []
    for banks, addrs in sweep:
        pct = mean_relative(machine_arb(banks, addrs, 128)[0])
        half = mean_relative(machine_arb(banks, max(1, addrs // 2), 64, tag="half")[0])
        rows.append([f"{banks}x{addrs}", 100.0 * pct, 100.0 * half])
    summary = {
        "pct_64x2": rows[sweep.index((64, 2))][1] if (64, 2) in sweep else 0.0,
        "paper_pct_64x2": 72.0,
        "pct_half_1x128": rows[0][2],
        "paper_pct_half_1x128": 84.0,
    }
    return FigureResult(
        figure_id="figure1",
        title="ARB IPC relative to unbounded LSQ (banks x addresses)",
        columns=["config", "ipc_pct", "ipc_pct_half_addresses"],
        rows=rows,
        summary=summary,
        notes=f"mean over {len(names)} workloads",
    )

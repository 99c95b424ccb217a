"""Scenario x geometry sweep: the stress matrix behind the paper's claims.

Crosses the scenario catalog (or any ``scenario:`` specs) with the
canonical machines, reporting per-point IPC and the failure-mode
statistics each stressor targets (L1D/dTLB miss rates, mispredicts,
deadlock flushes).  Every point is an ordinary :class:`SimSpec` through
:func:`~repro.experiments.runner.sweep`, so results are cache-keyed by
the scenario's canonical JSON and served warm on reruns.
"""

from __future__ import annotations

from repro.experiments.report import FigureResult
from repro.experiments.runner import (
    MACHINE_CONV128,
    MACHINE_SAMIE,
    LSQSpec,
    lsq_spec,
    sweep,
)
from repro.scenarios import SCENARIO_SCHEME, catalog_names


def default_machines() -> list[tuple[str, LSQSpec]]:
    """The three-way geometry axis: big CAM, SAMIE, banked ARB."""
    return [MACHINE_CONV128, MACHINE_SAMIE, ("arb-default", lsq_spec("arb"))]


def compute(
    scenarios: list[str] | None = None,
    machines: list[tuple[str, LSQSpec]] | None = None,
    instructions: int | None = None,
    warmup: int | None = None,
    seed: int = 1,
    jobs: int | None = 1,
    mem: tuple | dict | None = None,
    session=None,
) -> FigureResult:
    """Run the scenario x machine matrix and tabulate it.

    ``scenarios`` accepts catalog names or full ``scenario:`` specs
    (inline JSON included); default is the whole catalog.
    """
    names = scenarios if scenarios else catalog_names()
    specs = [
        n if n.startswith(SCENARIO_SCHEME) else SCENARIO_SCHEME + n
        for n in names
    ]
    machines = list(machines) if machines else default_machines()
    results = sweep(
        specs, machines, instructions, warmup, seed=seed, jobs=jobs,
        mem=mem, session=session,
    )
    rows = []
    worst = ("", "", 1e9)
    for name, spec in zip(names, specs):
        display = name[len(SCENARIO_SCHEME):] if name.startswith(
            SCENARIO_SCHEME) else name
        if display.startswith("{"):
            display = "inline"
        for mkey, _ in machines:
            r = results[(spec, mkey)]
            if r.ipc < worst[2]:
                worst = (display, mkey, r.ipc)
            rows.append([
                display, mkey, r.ipc, r.l1d_miss_rate, r.dtlb_miss_rate,
                r.mispredict_rate, float(r.deadlock_flushes),
            ])
    return FigureResult(
        figure_id="scenario_sweep",
        title="Scenario catalog x LSQ geometry stress matrix",
        columns=[
            "scenario", "machine", "ipc", "l1d_miss", "dtlb_miss",
            "mispredict", "flushes",
        ],
        rows=rows,
        summary={
            "points": float(len(rows)),
            "worst_ipc": worst[2] if rows else 0.0,
        },
    )

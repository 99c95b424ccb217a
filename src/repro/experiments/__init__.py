"""Experiment drivers: one module per paper figure/table.

Every driver exposes ``compute(..., jobs=N) -> FigureResult`` returning
the same rows/series the paper reports; ``repro figure ID``, ``repro
all`` and ``repro scenarios sweep`` are their command-line entry points.
Drivers build :class:`~repro.experiments.runner.SimSpec` batches and hand
them to :func:`~repro.experiments.runner.run_many` on the ``session=``
they are given (default: the runner's default session), which memoises
per (workload, machine, scale, seed, config), persists results to its
result store, and fans uncached specs out over a process pool when
``jobs > 1`` (Figures 5-12 all share one conventional-vs-SAMIE sweep,
simulated once per session).
"""

from repro.experiments.report import FigureResult, format_table, geomean
from repro.experiments.runner import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    MACHINE_CONV128,
    MACHINE_SAMIE,
    MACHINE_UNBOUNDED,
    REPRESENTATIVE_WORKLOADS,
    SimSpec,
    lsq_spec,
    machine_arb,
    machine_samie_unbounded_shared,
    mem_spec,
    parse_mem_overrides,
    validate_mem_spec,
    run_many,
    run_spec,
    suite_pairs,
    sweep,
)

__all__ = [
    "DEFAULT_INSTRUCTIONS",
    "DEFAULT_WARMUP",
    "MACHINE_CONV128",
    "MACHINE_SAMIE",
    "MACHINE_UNBOUNDED",
    "REPRESENTATIVE_WORKLOADS",
    "SimSpec",
    "lsq_spec",
    "machine_arb",
    "machine_samie_unbounded_shared",
    "mem_spec",
    "parse_mem_overrides",
    "validate_mem_spec",
    "run_many",
    "run_spec",
    "suite_pairs",
    "sweep",
    "FigureResult",
    "format_table",
    "geomean",
]


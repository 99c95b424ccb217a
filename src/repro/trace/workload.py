"""Adapt recorded traces into the workload registry.

A trace file is addressed by its canonical *spec name*
``trace:<abspath>``, which is what
:class:`~repro.experiments.runner.SimSpec` carries: it is picklable,
resolvable in worker processes with no registration step, and paired
with the trace's content digest in the cache key (see ``SimSpec.key``),
so recorded traces participate in the disk cache and process-pool
fan-out exactly like synthetic workloads.
"""

from __future__ import annotations

import os

from repro.trace.format import TraceInfo, TraceWriter
from repro.workloads.registry import TRACE_SCHEME

#: extra records beyond commit target so replay never starves the fetch
#: stage: bounded by ROB (256) + fetch queue + flush replays, with margin
RECORD_SLACK = 2048


def spec_name(path: str) -> str:
    """Canonical ``trace:<abspath>`` workload name for a trace file."""
    return TRACE_SCHEME + os.path.abspath(path)


def recommended_uops(instructions: int, warmup: int = 0, slack: int = RECORD_SLACK) -> int:
    """Records to capture so a replay at ``(instructions, warmup)`` is
    bit-identical to the live generator (the trace must outlive the
    fetch frontier, not just the commit target)."""
    return instructions + warmup + slack


def record_trace(
    path: str,
    workload: str,
    n_uops: int,
    seed: int = 1,
    meta: dict | None = None,
) -> TraceInfo:
    """Record ``n_uops`` of a synthetic workload's dynamic stream.

    The resulting file replays bit-identically through the pipeline as
    long as the run's fetch frontier stays within ``n_uops`` (use
    :func:`recommended_uops` to size it from an instruction budget).
    """
    from repro.workloads.registry import make_trace

    base_meta = {"source": "synthetic", "workload": workload, "seed": seed}
    base_meta.update(meta or {})
    src = make_trace(workload, seed)
    with TraceWriter(path, meta=base_meta) as w:
        for uop in src:
            if uop.seq >= n_uops:
                break
            w.append(uop)
    return w.info


def fixture_path(name: str = "spike_vvadd.log") -> str:
    """Path of a bundled fixture (tests/CI need no external tools)."""
    return os.path.join(os.path.dirname(__file__), "fixtures", name)

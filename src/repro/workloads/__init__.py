"""Synthetic SPEC2000-analogue workload models.

The paper evaluates on the full SPEC2000 suite (Alpha binaries, ref
inputs).  Those are unavailable here, so each benchmark is replaced by a
seeded synthetic trace generator whose *memory behaviour statistics* --
in-flight instructions per cache line, bank-distribution skew, footprint,
instruction mix, dependence distances, branch predictability -- are chosen
to reproduce the per-benchmark effects the paper reports.  See DESIGN.md
section 4 for the substitution rationale.
"""

from repro.workloads.base import WorkloadProfile, TraceBuilder
from repro.workloads.patterns import (
    AddressPattern,
    StridedStream,
    MultiArrayStencil,
    ColumnSweep,
    PointerChase,
    HotRandom,
    StackPattern,
)
from repro.workloads.analysis import TraceStats, analyse, analyse_workload, compare_workloads
from repro.workloads.registry import (
    get_workload,
    has_workload,
    list_workloads,
    make_trace,
)
from repro.workloads.spec2000 import PAPER_ORDER, SPEC2000_PROFILES, SPEC_INT, SPEC_FP

__all__ = [
    "WorkloadProfile",
    "TraceBuilder",
    "AddressPattern",
    "StridedStream",
    "MultiArrayStencil",
    "ColumnSweep",
    "PointerChase",
    "HotRandom",
    "StackPattern",
    "get_workload",
    "has_workload",
    "list_workloads",
    "make_trace",
    "PAPER_ORDER",
    "SPEC2000_PROFILES",
    "SPEC_INT",
    "SPEC_FP",
    "TraceStats",
    "analyse",
    "analyse_workload",
    "compare_workloads",
]

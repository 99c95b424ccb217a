"""Operation classes and functional-unit parameters.

Latencies and pool names follow Table 2 of the paper:

* INT: 6 ALUs (1 cycle), 3 mult/div units (3-cycle mult, 20-cycle
  non-pipelined div)
* FP: 4 ALUs (2 cycles), 2 mult/div units (4-cycle mult, 12-cycle
  non-pipelined div)

Loads and stores compute their effective address on the INT ALU pool
(1 cycle AGU) and then proceed through the LSQ / data cache, whose timing
is modelled separately.
"""

from __future__ import annotations

from enum import IntEnum


class OpClass(IntEnum):
    """Dynamic operation class of a micro-op."""

    INT_ALU = 0
    INT_MULT = 1
    INT_DIV = 2
    FP_ALU = 3
    FP_MULT = 4
    FP_DIV = 5
    LOAD = 6
    STORE = 7
    BRANCH = 8


#: Classes executed by the floating-point cluster.
FP_CLASSES = frozenset({OpClass.FP_ALU, OpClass.FP_MULT, OpClass.FP_DIV})

#: Classes that occupy an LSQ entry and access the data cache.
MEM_CLASSES = frozenset({OpClass.LOAD, OpClass.STORE})

#: Record op code -> :class:`OpClass` (trace records store the code).
OP_BY_CODE: dict[int, OpClass] = {int(op): op for op in OpClass}

#: Per-op flags ``(is_mem, is_load, is_store, is_branch, is_fp,
#: needs_int_reg)``, indexed by op code.  ``UOp`` and ``InFlight``
#: unpack one row at construction instead of testing set membership.
#: Loads and INT ALU/mult/div ops consume an INT rename register.
OP_FLAGS: tuple[tuple[bool, bool, bool, bool, bool, bool], ...] = tuple(
    (
        op in MEM_CLASSES,
        op is OpClass.LOAD,
        op is OpClass.STORE,
        op is OpClass.BRANCH,
        op in FP_CLASSES,
        op in (OpClass.LOAD, OpClass.INT_ALU, OpClass.INT_MULT, OpClass.INT_DIV),
    )
    for op in OpClass
)

#: Execution latency in cycles (address-generation latency for memory ops).
EXEC_LATENCY: dict[OpClass, int] = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MULT: 3,
    OpClass.INT_DIV: 20,
    OpClass.FP_ALU: 2,
    OpClass.FP_MULT: 4,
    OpClass.FP_DIV: 12,
    OpClass.LOAD: 1,  # AGU
    OpClass.STORE: 1,  # AGU
    OpClass.BRANCH: 1,
}

#: Whether the executing unit accepts a new op every cycle. Divides occupy
#: their unit for the full latency (Table 2: non-pipelined div).
PIPELINED: dict[OpClass, bool] = {
    OpClass.INT_ALU: True,
    OpClass.INT_MULT: True,
    OpClass.INT_DIV: False,
    OpClass.FP_ALU: True,
    OpClass.FP_MULT: True,
    OpClass.FP_DIV: False,
    OpClass.LOAD: True,
    OpClass.STORE: True,
    OpClass.BRANCH: True,
}


def fu_pool_for(op: OpClass) -> str:
    """Name of the functional-unit pool that executes ``op``.

    Memory ops and branches use the INT ALU pool for address generation /
    condition evaluation, matching SimpleScalar's resource binding.
    """
    if op in (OpClass.INT_ALU, OpClass.LOAD, OpClass.STORE, OpClass.BRANCH):
        return "int_alu"
    if op in (OpClass.INT_MULT, OpClass.INT_DIV):
        return "int_mult"
    if op is OpClass.FP_ALU:
        return "fp_alu"
    if op in (OpClass.FP_MULT, OpClass.FP_DIV):
        return "fp_mult"
    raise ValueError(f"unknown op class {op!r}")

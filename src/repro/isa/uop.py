"""The dynamic micro-op record: the interchange form of one instruction.

A ``UOp`` is one dynamic instruction in the trace.  Register dependences
are encoded as *producer distances*: ``src1 = d`` means the operand is
produced by the instruction ``d`` positions earlier in the dynamic stream
(``0`` means no dependence / value already architected).  The dispatch
stage resolves distances to absolute sequence numbers against the
in-flight window.

``UOp`` is what sources yield from ``next()`` and what the trace
format, Spike ingest, scenarios and the verify fuzzer exchange.  The
pipeline itself runs on :class:`~repro.core.inflight.InFlight`, which
carries the same fields next to its dynamic state; fetch builds one
per instruction, from a ``UOp`` (``InFlight.from_uop``) or straight
from a source's record batch.
"""

from __future__ import annotations

from repro.isa.opclasses import OP_FLAGS, OpClass


class UOp:
    """One dynamic instruction.

    Attributes:
        seq: dynamic sequence number (assigned by the generator, dense).
        pc: instruction address (synthetic; used by predictor/BTB/I-cache).
        op: :class:`OpClass`.
        src1, src2: producer distances (0 = none).
        addr: effective byte address (memory ops only, else 0).
        size: access size in bytes (memory ops only, else 0).
        taken: branch outcome (branches only).
        target: branch target PC (branches only).
        is_mem, is_load, is_store, is_branch, is_fp, needs_int_reg:
            op-class flags, one row of
            :data:`~repro.isa.opclasses.OP_FLAGS` unpacked at
            construction.
    """

    __slots__ = (
        "seq", "pc", "op", "src1", "src2", "addr", "size", "taken", "target",
        "is_mem", "is_load", "is_store", "is_branch", "is_fp", "needs_int_reg",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        op: OpClass,
        src1: int = 0,
        src2: int = 0,
        addr: int = 0,
        size: int = 0,
        taken: bool = False,
        target: int = 0,
    ):
        self.seq = seq
        self.pc = pc
        self.op = op
        self.src1 = src1
        self.src2 = src2
        self.addr = addr
        self.size = size
        self.taken = taken
        self.target = target
        (self.is_mem, self.is_load, self.is_store, self.is_branch,
         self.is_fp, self.needs_int_reg) = OP_FLAGS[op]

    def line_addr(self, line_shift: int) -> int:
        """Cache-line address (byte address >> line_shift)."""
        return self.addr >> line_shift

    def as_tuple(self) -> tuple:
        """Canonical value form ``(seq, pc, op, src1, src2, addr, size,
        taken, target)``.

        The single serialization contract shared by the trace format
        (:mod:`repro.trace.format`) and the verify fuzzer's replay
        tuples; two uops are behaviourally identical iff their tuples
        are equal.
        """
        return (
            self.seq, self.pc, int(self.op), self.src1, self.src2,
            self.addr, self.size, self.taken, self.target,
        )

    @classmethod
    def from_tuple(cls, t: tuple) -> "UOp":
        """Rebuild a uop from :meth:`as_tuple` output."""
        seq, pc, op, src1, src2, addr, size, taken, target = t
        return cls(
            seq, pc, OpClass(op), src1=src1, src2=src2,
            addr=addr, size=size, taken=bool(taken), target=target,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.is_mem:
            extra = f" addr=0x{self.addr:x} size={self.size}"
        elif self.is_branch:
            extra = f" taken={self.taken} target=0x{self.target:x}"
        return f"UOp(#{self.seq} {self.op.name} pc=0x{self.pc:x}{extra})"

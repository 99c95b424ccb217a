"""One dynamic instruction, from fetch to commit.

``InFlight`` is the pipeline's only per-instruction object: the static
fields of the instruction record (those of :class:`~repro.isa.uop.UOp`)
sit next to everything the pipeline and the LSQ models track between
fetch and commit, all in ``__slots__``.  Fetch builds it once -- one
``map`` over the columns of a source's record batch
(:meth:`InFlight.from_records`), or from a ``UOp`` for plain iterators
(:meth:`InFlight.from_uop`) -- and dispatch moves that same object into
the window.  A flush squashes it and queues a fresh copy (``from_uop``
of the squashed instance) for refetch, so no dynamic state survives a
squash.

It deliberately uses plain attributes rather than a state machine
object: the pipeline is the single writer and the fields are its
latches.
"""

from __future__ import annotations

from itertools import starmap
from operator import attrgetter
from typing import Any, Iterable, Iterator

from repro.isa.opclasses import OP_BY_CODE, OP_FLAGS, OpClass
from repro.isa.uop import UOp

#: the static fields, in constructor order
_STATIC = attrgetter("seq", "pc", "op", "src1", "src2", "addr", "size", "taken", "target")


class InFlight:
    """Pipeline state of one fetched instruction.

    Lifecycle::

        fetch -> dispatch -> (issue -> execute) -> [mem: address_ready
        -> placement -> access] -> done -> commit

    Static attributes (the instruction record; never written after
    construction):
        seq: dynamic sequence number (also the age identifier).
        pc, op, src1, src2, addr, size, taken, target: as in
            :class:`~repro.isa.uop.UOp`.
        byte0, byte1: half-open ``[byte0, byte1)`` byte range of a
            memory access.
        is_mem, is_load, is_store, is_branch, is_fp, needs_int_reg:
            op-class flags, one row of
            :data:`~repro.isa.opclasses.OP_FLAGS`.

    Dynamic attributes:
        deps_left: producers still outstanding.
        issued: instruction has been sent to a functional unit.
        done: result available (dependents may wake).
        addr_ready: effective address computed (memory ops).
        disamb_resolved: this *store* no longer blocks younger loads
            (conventional: address known; SAMIE: placed in the LSQ).
        placement: opaque LSQ placement token (None = not placed;
            the LSQ model owns its meaning).
        in_addr_buffer: parked in the SAMIE AddrBuffer.
        mem_started: the D-cache access / forward has been initiated.
        store_data_ready: store operand value available.
        load_value: model-observed value tag (data-checking mode).
        stall_charged_until: MSHR stall-episode watermark -- structural
            stall cycles have been charged up to this hierarchy cycle
            (closed-form interval accounting; see
            :meth:`repro.mem.hierarchy.MemoryHierarchy.daccess_blocked`).
        stall_epoch: the hierarchy stall epoch the watermark belongs to;
            a stats reset bumps the epoch, voiding stale watermarks.
        waiters: dispatched consumers waiting for this instruction's
            result, in dispatch order (None until the first one).
        data_waiters: dispatched stores whose data operand this
            instruction produces, in dispatch order (None until the
            first one).
    """

    __slots__ = (
        "seq", "pc", "op", "src1", "src2", "addr", "size", "taken", "target",
        "byte0", "byte1",
        "is_mem", "is_load", "is_store", "is_branch", "is_fp", "needs_int_reg",
        "deps_left",
        "issued",
        "done",
        "addr_ready",
        "disamb_resolved",
        "placement",
        "in_addr_buffer",
        "mem_started",
        "store_data_ready",
        "load_value",
        "stall_charged_until",
        "stall_epoch",
        "waiters",
        "data_waiters",
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
        self.byte0 = addr
        self.byte1 = addr + size
        (self.is_mem, self.is_load, self.is_store, self.is_branch,
         self.is_fp, self.needs_int_reg) = OP_FLAGS[op]
        self.deps_left = 0
        self.issued = False
        self.done = False
        self.addr_ready = False
        self.disamb_resolved = False
        self.placement: Any = None
        self.in_addr_buffer = False
        self.mem_started = False
        self.store_data_ready = False
        self.load_value: Any = None
        self.stall_charged_until = 0
        self.stall_epoch = 0
        self.waiters: list[InFlight] | None = None
        self.data_waiters: list[InFlight] | None = None

    @classmethod
    def from_uop(cls, uop: "UOp | InFlight") -> "InFlight":
        """The instruction of one ``UOp`` (or a fresh copy of an
        ``InFlight``, which has the same static fields), with fresh
        dynamic state."""
        return cls(uop.seq, uop.pc, uop.op, uop.src1, uop.src2,
                   uop.addr, uop.size, uop.taken, uop.target)

    @classmethod
    def copies(cls, instrs: Iterable["InFlight"]) -> Iterator["InFlight"]:
        """``from_uop`` of each of ``instrs``, in order, without a Python
        call per instance besides the constructor (a flush copies up to
        a window of them)."""
        return starmap(cls, map(_STATIC, instrs))

    @classmethod
    def from_records(cls, rec, seq0: int) -> list["InFlight"]:
        """One instance per record of a ``record_dtype()`` batch.

        Seqs run densely from ``seq0``.  An op code outside
        :class:`OpClass` raises the ``KeyError`` that
        :meth:`repro.trace.format.TraceStream.__next__` raises for it.
        """
        return list(map(
            cls, range(seq0, seq0 + len(rec)), rec["pc"].tolist(),
            map(OP_BY_CODE.__getitem__, rec["op"].tolist()),
            rec["src1"].tolist(), rec["src2"].tolist(),
            rec["addr"].tolist(), rec["size"].tolist(),
            (rec["flags"] == 1).tolist(), rec["target"].tolist(),
        ))

    def overlaps(self, other: "InFlight") -> bool:
        """True when the byte ranges of two memory ops intersect."""
        return self.byte0 < other.byte1 and other.byte0 < self.byte1

    def contains(self, other: "InFlight") -> bool:
        """True when this access covers every byte of ``other``."""
        return self.byte0 <= other.byte0 and other.byte1 <= self.byte1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            c
            for c, f in (
                ("I", self.issued),
                ("A", self.addr_ready),
                ("P", self.placement is not None),
                ("D", self.done),
            )
            if f
        )
        return f"InFlight(#{self.seq} {self.op.name} pc=0x{self.pc:x} [{flags}])"

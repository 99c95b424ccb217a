"""Cycle-level out-of-order pipeline.

Trace-driven 8-wide machine following Table 2 of the paper: fetch (with
hybrid predictor, BTB and I-cache timing), in-order dispatch into a
256-entry ROB and split INT/FP issue queues, dataflow issue to functional
-unit pools, a pluggable LSQ model, D-cache/DTLB timing with 4-port
arbitration, and 8-wide in-order commit.

Stage order within one simulated cycle (see DESIGN.md §3 for rationale):

1. begin:    release ports/FUs, drain the LSQ AddrBuffer
2. complete: consume events scheduled for this cycle (wakeups, AGU done,
             load data return, branch resolution)
3. commit:   in-order retire, store cache writes, deadlock detection
4. memory:   start ready loads on free D-cache ports
5. issue:    ready-heap -> functional units
6. dispatch: fetch queue -> ROB/IQ/LSQ (moves the fetched object)
7. fetch:    trace -> fetch queue (prediction, I-cache); builds the
             one :class:`~repro.core.inflight.InFlight` per instruction
8. sample:   telemetry (active area, occupancies), charged once per run
             of unchanged LSQ state: a run closes when the LSQ's area
             breakdown changes, at a stats reset and at the result

On a branch misprediction fetch stalls until the branch resolves
(trace-driven: there is no wrong path).  A pipeline flush (the SAMIE
deadlock-avoidance mechanism, §3.3) squashes every in-flight instruction
and refetches starting at the ROB head, replaying fresh copies of the
squashed instructions.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterator

from repro.branch.btb import BTB
from repro.branch.hybrid import HybridPredictor
from repro.core.config import ProcessorConfig
from repro.core.fu import FuncUnitPool
from repro.core.inflight import InFlight
from repro.core.issue_queue import IssueQueue
from repro.core.rob import ReorderBuffer
from repro.common.stats import Histogram
from repro.energy.accounting import EnergyAccount
from repro.energy.leakage import ActiveAreaTracker
from repro.energy.tables import CACHE_ENERGY
from repro.isa.opclasses import EXEC_LATENCY, PIPELINED, fu_pool_for
from repro.isa.uop import UOp
from repro.lsq.base import BaseLSQ, RouteKind
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.telemetry import SECTIONS, build_extra, get_telemetry

#: "no sequence number": above every real seq (frontier / bound sentinel)
_NO_SEQ = 1 << 62

#: records fetch takes per ``take_batch`` call from a batch source
_FETCH_BATCH = 256

#: hoisted Table 5 cache-access energies (read per data-side access)
_E_DCACHE_WAY = CACHE_ENERGY["dcache_way_known_access"]
_E_DCACHE_FULL = CACHE_ENERGY["dcache_full_access"]
_E_DTLB = CACHE_ENERGY["dtlb_access"]


@dataclass
class SimResult:
    """Summary of one simulation run."""

    instructions: int
    cycles: int
    lsq_name: str
    lsq_energy_pj: dict[str, float]
    cache_energy_pj: dict[str, float]
    area_um2_cycles: dict[str, float]
    deadlock_flushes: int
    mispredict_rate: float
    l1d_miss_rate: float
    dtlb_miss_rate: float
    lsq_stats: dict[str, int]
    shared_occupancy_mean: float = 0.0
    shared_occupancy_p99: int = 0
    addr_buffer_busy_frac: float = 0.0
    data_violations: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def lsq_energy_total_pj(self) -> float:
        """Total LSQ dynamic energy (all components and buses)."""
        return sum(self.lsq_energy_pj.values())

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot (includes derived metrics).

        Equal to ``dataclasses.asdict`` (a deep copy: mutating the dict
        never reaches the result) at a fraction of its recursive cost.
        """
        d = {name: _copy_value(getattr(self, name)) for name in _RESULT_FIELDS}
        d["ipc"] = self.ipc
        d["lsq_energy_total_pj"] = self.lsq_energy_total_pj
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimResult":
        """Rebuild a result saved with :meth:`to_dict`.

        A saved copy holds the legacy ``extra`` aliases apart from the
        telemetry sections they name; they are re-pointed at the
        sections, so a loaded result reads and mutates like a fresh one.
        """
        fields = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        extra = fields.get("extra")
        tel = extra.get("telemetry") if isinstance(extra, dict) else None
        if isinstance(tel, dict):
            for section in SECTIONS:
                if section in extra and isinstance(tel.get(section), dict):
                    extra[section] = tel[section]
        return cls(**fields)

    def telemetry(self) -> dict:
        """The versioned telemetry envelope (``extra["telemetry"]``).

        Reads legacy pre-envelope extras too; see
        :mod:`repro.obs.telemetry` for the schema.
        """
        return get_telemetry(self)


#: SimResult's dataclass fields, in declaration (= ``asdict``) order
_RESULT_FIELDS = tuple(SimResult.__dataclass_fields__)
_SCALARS = (int, float, str, bool, type(None))


def _copy_value(value):
    """``asdict``'s copy of one field value: containers are rebuilt,
    scalars shared (immutable), anything else deep-copied."""
    kind = type(value)
    if kind is dict:
        return {k: _copy_value(v) for k, v in value.items()}
    if kind is list:
        return [_copy_value(v) for v in value]
    if kind is tuple:
        return tuple(_copy_value(v) for v in value)
    if kind in _SCALARS:
        return value
    return copy.deepcopy(value)


class Pipeline:
    """The cycle loop.  Construct via :func:`repro.core.processor.build_processor`.

    Every run is event-driven: between steps, cycles on which no stage
    can act are jumped over in closed form (:meth:`_skip_quiescent`),
    bit-identically to the stepped loop.  The stepped loop stays as the
    oracle (``event_skip = False``) and as the loop of the two modes
    that must see every cycle: an attached cycle tracer and the per-poll
    MSHR reference accounting (``mem.interval_stall_stats = False``).
    """

    # slotted layout: every per-cycle self.X read resolves through a slot
    # instead of the instance dict; "__dict__" keeps ad-hoc attribute
    # assignment working (e.g. the benchmark harness wraps stage methods)
    __slots__ = (
        "cfg", "lsq", "mem", "predictor", "btb", "rob", "int_iq", "fp_iq",
        "pools", "fetch_queue", "_fetch_cap", "cache_energy", "area",
        "_pool_list", "_sample_occ", "_issue_info",
        "_area_acc", "_occ_list", "_ab_buf", "_skip_area",
        "_held_bd", "_held_occ", "_held_ab", "_held_since",
        "_lsq_begin_cycle", "_lsq_area_breakdown",
        "_commit_width", "_decode_width", "_fetch_width", "_watchdog",
        "_track_data", "_iw_int", "_iw_fp",
        "cycle", "committed", "deadlock_flushes", "overflow_flushes",
        "_last_commit_cycle", "_events", "_inflight", "_waiters",
        "_data_waiters", "_pending_loads", "_pending_min", "_unresolved_stores",
        "_int_regs_used", "_fp_regs_used",
        "_trace", "_take_batch", "_batch", "_batch_pos", "_records",
        "_replay", "_fetch_seq", "_trace_exhausted",
        "_fetch_stall_seq", "_fetch_block_until", "_last_iline",
        "_flush_requested",
        "_ref_mem", "_expected", "_committed_mem", "data_violations",
        "committed_load_values",
        "shared_occ_hist", "addr_buffer_busy_cycles",
        "_stat_cycle0", "_stat_committed0",
        "_ctrace",
        "event_skip", "skipped_cycles",
        "__dict__",
    )

    def __init__(self, cfg: ProcessorConfig, lsq: BaseLSQ, mem: MemoryHierarchy):
        self.cfg = cfg
        self.lsq = lsq
        self.mem = mem
        self.predictor = HybridPredictor(
            cfg.gshare_entries, cfg.bimodal_entries, cfg.selector_entries
        )
        self.btb = BTB(cfg.btb_entries, cfg.btb_assoc)
        self.rob = ReorderBuffer(cfg.rob_entries)
        self.int_iq = IssueQueue(cfg.issue_queue_int)
        self.fp_iq = IssueQueue(cfg.issue_queue_fp)
        self.pools = {
            "int_alu": FuncUnitPool("int_alu", cfg.int_alu),
            "int_mult": FuncUnitPool("int_mult", cfg.int_mult),
            "fp_alu": FuncUnitPool("fp_alu", cfg.fp_alu),
            "fp_mult": FuncUnitPool("fp_mult", cfg.fp_mult),
        }
        # plain deque + explicit capacity: peeked/popped every cycle
        self.fetch_queue: deque[InFlight] = deque()
        self._fetch_cap = cfg.fetch_queue
        self.cache_energy = EnergyAccount()
        self.area = ActiveAreaTracker()
        # SAMIE presentBit invalidation hook
        self.mem.l1d.on_evict = self.lsq.on_l1_evict
        # hot-loop latches: resolved once so step() skips quiescent stages
        # without attribute/hasattr churn
        self._pool_list = tuple(self.pools.values())
        self._sample_occ = cfg.sample_occupancy and hasattr(lsq, "shared_in_use")
        # stable container references (cleared in place, never replaced):
        # the per-cycle telemetry reads them without method-call churn
        self._area_acc = self.area._area_cycles
        self._occ_list = lsq._shared if self._sample_occ else None
        self._ab_buf = lsq._addr_buffer._buf if self._sample_occ else None
        # a constant-zero breakdown (ARB) skips the per-step identity
        # test; the accumulator is seeded instead so results keep the
        # component key
        self._skip_area = bool(getattr(lsq, "area_is_constant_zero", False))
        if self._skip_area:
            for comp, area in lsq.area_breakdown().items():
                self._area_acc[comp] += area
        # stage 8 is charged per run of unchanged LSQ state: the state
        # last seen (breakdown object, SharedLSQ occupancy, AddrBuffer
        # busy) and the cycle since which it has held; _flush_area
        # closes the run
        self._held_bd: dict[str, float] | None = None
        self._held_occ = 0
        self._held_ab = False
        self._held_since = 0
        #: OpClass -> (pool, exec latency, pipelined?): one lookup per issue
        self._issue_info = {
            op: (self.pools[fu_pool_for(op)], EXEC_LATENCY[op], PIPELINED[op])
            for op in EXEC_LATENCY
        }
        # per-cycle bound methods and config scalars, resolved once;
        # a model using the base no-op begin_cycle skips the call entirely
        self._lsq_begin_cycle = (
            lsq.begin_cycle
            if type(lsq).begin_cycle is not BaseLSQ.begin_cycle
            else None
        )
        self._lsq_area_breakdown = lsq.area_breakdown
        self._commit_width = cfg.commit_width
        self._decode_width = cfg.decode_width
        self._fetch_width = cfg.fetch_width
        self._watchdog = cfg.commit_watchdog
        self._track_data = cfg.track_data
        self._iw_int = cfg.issue_width_int
        self._iw_fp = cfg.issue_width_fp

        self.cycle = 0
        self.committed = 0
        self.deadlock_flushes = 0
        self.overflow_flushes = 0
        self._last_commit_cycle = 0
        self._events: dict[int, list[tuple[str, InFlight]]] = {}
        self._inflight: dict[int, InFlight] = {}
        self._waiters: dict[int, list[InFlight]] = {}
        self._data_waiters: dict[int, list[InFlight]] = {}
        self._pending_loads: list[InFlight] = []
        #: lower bound on the seqs in _pending_loads: while the oldest
        #: unresolved store is older, every pending load is blocked
        self._pending_min = _NO_SEQ
        self._unresolved_stores: deque[InFlight] = deque()
        self._int_regs_used = 0
        self._fp_regs_used = 0

        self._trace: Iterator[UOp] | None = None
        self._take_batch = None
        #: InFlights built from the source's last batch, and the next one
        self._batch: list[InFlight] = []
        self._batch_pos = 0
        #: records taken from the source (the seq of the next new one);
        #: kept apart from _fetch_seq, which a flush rewinds
        self._records = 0
        #: seq -> fetched, uncommitted instruction (refetched after a flush)
        self._replay: dict[int, InFlight] = {}
        self._fetch_seq = 0
        self._trace_exhausted = False
        self._fetch_stall_seq: int | None = None  # mispredicted branch seq
        self._fetch_block_until = 0  # I-cache miss stall
        self._last_iline = -1
        self._flush_requested = False

        # data-value oracle (track_data mode)
        self._ref_mem: dict[int, int] = {}
        self._expected: dict[int, tuple[int, ...]] = {}
        self._committed_mem: dict[int, int] = {}
        self.data_violations: list[tuple[int, tuple, tuple]] = []
        #: seq -> observed value of every retired load (track_data mode);
        #: compared against the standalone golden model by repro.verify.diff
        self.committed_load_values: dict[int, tuple[int, ...]] = {}

        # occupancy telemetry
        self.shared_occ_hist = Histogram(max_value=512)
        self.addr_buffer_busy_cycles = 0
        self._stat_cycle0 = 0
        self._stat_committed0 = 0

        #: opt-in cycle tracer (repro.obs.cycletrace); None costs one
        #: identity test per cycle, the whole disabled-observability budget
        self._ctrace = None

        #: event-driven skipping of quiescent stall cycles (see
        #: :meth:`_skip_quiescent`), on for every run.  Bit-preserving by
        #: construction, so like the warm-engine choice it is not part of
        #: any cache key.  Setting it False runs the stepped loop, the
        #: oracle of tests/test_event_skip.py; an attached cycle tracer
        #: and the per-poll MSHR reference mode
        #: (``mem.interval_stall_stats = False``) always step, because
        #: both must see every cycle.
        self.event_skip = True
        #: cycles jumped over by the skip (diagnostic; not a statistic)
        self.skipped_cycles = 0

    # ------------------------------------------------------------------
    # trace plumbing
    # ------------------------------------------------------------------
    def attach_trace(self, trace: Iterator[UOp]) -> None:
        """Connect the dynamic instruction source.

        A source with a ``take_batch`` method (synthetic streams, trace
        files) is read ``_FETCH_BATCH`` records at a time, so fetch runs
        up to one batch ahead of the instructions it has fetched; any
        other iterator is pulled one ``UOp`` per fetched instruction and
        is never read ahead (a sampled stream must not be).
        """
        self._trace = trace
        self._take_batch = getattr(trace, "take_batch", None)
        self._batch = []
        self._batch_pos = 0

    def set_cycle_tracer(self, tracer) -> None:
        """Attach (or with ``None`` detach) an observation-only cycle hook.

        The tracer's ``snap(pipe)`` runs once per cycle and ``event(...)``
        at flushes; it must only *read* pipeline state (see
        :class:`repro.obs.cycletrace.CycleTracer`), which keeps traced
        runs bit-identical to untraced ones.
        """
        self._ctrace = tracer

    def _next_ins(self) -> InFlight | None:
        """The instruction at ``_fetch_seq``, or None at the trace end."""
        seq = self._fetch_seq
        if seq < self._records:
            # refetch after a flush: a fresh copy, so no dynamic state
            # of the squashed instance survives
            ins = self._replay[seq] = InFlight.from_uop(self._replay[seq])
        else:
            pos = self._batch_pos
            if pos < len(self._batch):  # common case: built and waiting
                ins = self._batch[pos]
                self._batch_pos = pos + 1
            else:
                ins = self._pull()
                if ins is None:
                    return None
            self._records = seq + 1
            self._replay[seq] = ins
            if self._track_data:
                self._oracle_record(ins)
        self._fetch_seq = seq + 1
        return ins

    def _pull(self) -> InFlight | None:
        """The next new instruction from the source once the current
        batch is used up: the next ``UOp`` of a plain iterator, or the
        first of a new batch.  None at the source's end."""
        if self._trace_exhausted:
            return None
        if self._take_batch is None:
            try:
                uop = next(self._trace)
            except StopIteration:
                self._trace_exhausted = True
                return None
            if uop.seq != self._records:  # pragma: no cover - generator contract
                raise RuntimeError(
                    f"trace out of order: got {uop.seq}, want {self._records}")
            return InFlight.from_uop(uop)
        rec = self._take_batch(_FETCH_BATCH)
        if not len(rec):
            self._trace_exhausted = True
            return None
        self._batch = InFlight.from_records(rec, self._records)
        self._batch_pos = 1
        return self._batch[0]

    def _oracle_record(self, ins: InFlight) -> None:
        """In-order reference semantics, evaluated at first fetch."""
        if ins.is_store:
            for b in range(ins.addr, ins.addr + ins.size):
                self._ref_mem[b] = ins.seq
        elif ins.is_load:
            self._expected[ins.seq] = tuple(
                self._ref_mem.get(b, 0) for b in range(ins.addr, ins.addr + ins.size)
            )

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def _schedule(self, cycle: int, kind: str, ins: InFlight) -> None:
        events = self._events
        bucket = events.get(cycle)
        if bucket is None:
            events[cycle] = bucket = []
        bucket.append((kind, ins))

    # ------------------------------------------------------------------
    # stage 2: complete (dependent wake-up is inlined in the event loop)
    # ------------------------------------------------------------------
    def _complete(self) -> None:
        events = self._events.pop(self.cycle, None)
        if events is None:
            return
        inflight = self._inflight
        waiters = self._waiters
        data_waiters = self._data_waiters
        int_iq = self.int_iq
        fp_iq = self.fp_iq
        lsq = self.lsq
        for kind, ins in events:
            if ins.seq not in inflight:
                continue  # squashed by a flush after scheduling
            if kind == "agu":
                ins.addr_ready = True
                lsq.address_ready(ins)
                if getattr(lsq, "need_flush", False):
                    # AddrBuffer overflow signal from the SAMIE model
                    self._flush_requested = True
                if ins.is_store:
                    self._advance_store_frontier()
                    if ins.store_data_ready:
                        ins.done = True
                else:
                    self._pending_loads.append(ins)
                    if ins.seq < self._pending_min:
                        self._pending_min = ins.seq
                continue
            if kind != "exec" and kind != "mem":  # pragma: no cover
                raise RuntimeError(f"unknown event {kind}")
            ins.done = True
            # wake dependents: a consumer whose last operand arrived
            # joins its queue's age-ordered ready heap
            for w in waiters.pop(ins.seq, ()):  # register dependents
                w.deps_left -= 1
                if w.deps_left == 0 and not w.issued:
                    iq = fp_iq if w.is_fp else int_iq
                    heappush(iq._ready, (w.seq, w))
            for w in data_waiters.pop(ins.seq, ()):  # store data operands
                w.store_data_ready = True
                lsq.store_data_arrived(w)
                if w.addr_ready and not w.done:
                    w.done = True
            if kind == "exec" and ins.is_branch:
                self._resolve_branch(ins)

    def _resolve_branch(self, ins: InFlight) -> None:
        self.predictor.update(ins.pc, ins.taken, predicted=None)
        if ins.taken:
            self.btb.update(ins.pc, ins.target)
        if self._fetch_stall_seq == ins.seq:
            self._fetch_stall_seq = None

    def _advance_store_frontier(self) -> None:
        q = self._unresolved_stores
        while q and (q[0].disamb_resolved or q[0].seq not in self._inflight):
            q.popleft()

    # ------------------------------------------------------------------
    # stage 3: commit
    # ------------------------------------------------------------------
    def _commit(self) -> None:
        buf = self.rob.buf
        if not buf:
            return
        head = buf[0]
        if not head.done and not (
            head.is_mem and head.addr_ready and head.placement is None
        ):
            return  # common stalled case: head simply not finished yet
        lsq = self.lsq
        mem = self.mem
        inflight = self._inflight
        replay = self._replay
        track = self._track_data
        for _ in range(self._commit_width):
            if not buf:
                return
            head = buf[0]
            if head.is_mem and head.addr_ready and head.placement is None:
                # the paper's deadlock-avoidance check (§3.3)
                if lsq.head_blocked(head):
                    self._flush(reason="deadlock")
                    return
                if head.placement is None:
                    return  # placed next cycle via AddrBuffer drain
            if not head.done:
                return
            if head.is_mem:
                if head.is_store:
                    if head.placement is None:
                        return  # cannot write the cache before disambiguation
                    if mem.daccess_blocked(head.addr, head):
                        return  # MSHR exhausted: retry writeback next cycle
                    if not mem.dports.try_acquire():
                        return  # no write port this cycle
                    self._store_writeback(head)
                lsq.commit(head)
            # retire: leave the ROB and the in-flight map, free the register
            buf.popleft()
            seq = head.seq
            del inflight[seq]
            replay.pop(seq, None)
            if head.is_fp:
                self._fp_regs_used -= 1
            elif head.needs_int_reg:
                self._int_regs_used -= 1
            if track and head.is_load:
                self.committed_load_values[seq] = head.load_value
                expected = self._expected.pop(seq, None)
                if expected is not None and head.load_value != expected:
                    self.data_violations.append((seq, expected, head.load_value))
            self.committed += 1
            self._last_commit_cycle = self.cycle

    def _store_writeback(self, ins: InFlight) -> None:
        route = self.lsq.route_store_commit(ins)
        out = self.mem.daccess(
            ins.addr, write=True, skip_tlb=route.skip_tlb, way_known=route.way_known
        )
        self._charge_access(route.way_known, route.skip_tlb)
        self.lsq.record_location(ins, out.l1.set_index, out.l1.way)
        self.mem.l1d.set_present_bit(out.l1.set_index, out.l1.way, True)
        if self._track_data:
            for b in range(ins.byte0, ins.byte1):
                self._committed_mem[b] = ins.seq

    def _charge_access(self, way_known: bool, skip_tlb: bool) -> None:
        # inlined EnergyAccount.charge: table constants are non-negative
        pj = self.cache_energy._pj
        pj["dcache"] += _E_DCACHE_WAY if way_known else _E_DCACHE_FULL
        if not skip_tlb:
            pj["dtlb"] += _E_DTLB

    def _release_reg(self, ins: InFlight) -> None:
        if ins.is_fp:
            self._fp_regs_used -= 1
        elif ins.needs_int_reg:
            self._int_regs_used -= 1

    # ------------------------------------------------------------------
    # stage 4: memory
    # ------------------------------------------------------------------
    def _memory_issue(self) -> None:
        pending = self._pending_loads
        if not pending:
            return
        # the oldest store with an unknown address bounds which loads issue
        q = self._unresolved_stores
        inflight = self._inflight
        while q and (q[0].disamb_resolved or q[0].seq not in inflight):
            q.popleft()
        frontier = q[0].seq if q else _NO_SEQ
        if frontier < self._pending_min:
            return  # every pending load waits on an older unresolved store
        lsq = self.lsq
        mem = self.mem
        track = self._track_data
        # `still` is materialized lazily: on the (common) quiescent cycle
        # where every pending load stays pending, the list is reused
        # as-is instead of being rebuilt element by element
        still: list[InFlight] | None = None
        for i, ld in enumerate(pending):
            if ld.seq not in inflight or ld.mem_started:
                if still is None:
                    still = pending[:i]
                continue
            if ld.seq > frontier or not lsq.load_ready(ld):
                if still is not None:
                    still.append(ld)
                continue
            route = lsq.route_load(ld)
            if route.kind is RouteKind.FORWARD:
                if still is None:
                    still = pending[:i]
                ld.mem_started = True
                if track:
                    ld.load_value = tuple(route.store.seq for _ in range(ld.size))
                self._schedule(self.cycle + 1, "mem", ld)
            else:
                if mem.daccess_blocked(ld.addr, ld):
                    if still is not None:
                        still.append(ld)  # structural stall: MSHRs exhausted
                    continue
                if not mem.dports.try_acquire():
                    if still is not None:
                        still.append(ld)
                    continue
                if still is None:
                    still = pending[:i]
                ld.mem_started = True
                out = mem.daccess(
                    ld.addr, write=False, skip_tlb=route.skip_tlb, way_known=route.way_known
                )
                self._charge_access(route.way_known, route.skip_tlb)
                lsq.record_location(ld, out.l1.set_index, out.l1.way)
                mem.l1d.set_present_bit(out.l1.set_index, out.l1.way, True)
                if track:
                    ld.load_value = tuple(
                        self._committed_mem.get(b, 0)
                        for b in range(ld.byte0, ld.byte1)
                    )
                self._schedule(self.cycle + max(1, out.latency), "mem", ld)
        if still is not None:
            self._pending_loads = still
            self._pending_min = min([ld.seq for ld in still], default=_NO_SEQ)

    # ------------------------------------------------------------------
    # stage 5: issue
    # ------------------------------------------------------------------
    def _issue(self) -> None:
        self._issue_from(self.int_iq, self._iw_int)
        self._issue_from(self.fp_iq, self._iw_fp)

    def _issue_from(self, iq: IssueQueue, width: int) -> None:
        ready = iq._ready
        if not ready:
            return
        inflight = self._inflight
        lsq = self.lsq
        cycle = self.cycle
        issue_info = self._issue_info
        events = self._events
        deferred: list[InFlight] = []
        issued = 0
        while issued < width and ready:
            # the oldest ready instruction leaves the queue
            ins = heappop(ready)[1]
            iq.size -= 1
            if ins.seq not in inflight:
                continue  # squashed
            if ins.is_mem and not lsq.can_accept_address():
                deferred.append(ins)  # §3.3: no guaranteed AddrBuffer slot
                continue
            pool, lat, pipelined = issue_info[ins.op]
            # claim a unit: per-cycle bandwidth minus busy non-pipelined units
            if pool.units - pool._issued_this_cycle - len(pool._busy_until) <= 0:
                deferred.append(ins)
                continue
            pool._issued_this_cycle += 1
            if not pipelined:
                pool._busy_until.append(cycle + lat)
            ins.issued = True
            issued += 1
            if ins.is_mem:
                lsq.address_issued()
                kind = "agu"
            else:
                kind = "exec"
            # inlined _schedule
            when = cycle + lat
            bucket = events.get(when)
            if bucket is None:
                events[when] = bucket = []
            bucket.append((kind, ins))
        for ins in deferred:
            # not issued this cycle: back into the ready heap
            heappush(ready, (ins.seq, ins))
            iq.size += 1

    # ------------------------------------------------------------------
    # stage 6: dispatch (moves the fetched InFlight; builds nothing)
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        fq = self.fetch_queue
        rob = self.rob
        rob_buf = rob.buf
        rob_cap = rob.capacity
        if not fq or len(rob_buf) >= rob_cap:
            return  # cheap exit before binding the per-uop locals
        inflight = self._inflight
        waiters = self._waiters
        lsq = self.lsq
        int_iq = self.int_iq
        fp_iq = self.fp_iq
        cfg = self.cfg
        for _ in range(self._decode_width):
            if not fq or len(rob_buf) >= rob_cap:
                return
            ins = fq[0]
            iq = fp_iq if ins.is_fp else int_iq
            if iq.size >= iq.capacity:
                return
            # claim a rename register; stall when none is free
            if ins.is_fp:
                if self._fp_regs_used >= cfg.fp_regs:
                    return
                self._fp_regs_used += 1
            elif ins.needs_int_reg:
                if self._int_regs_used >= cfg.int_regs:
                    return
                self._int_regs_used += 1
            # a refused dispatch leaves ins untouched (BaseLSQ.dispatch
            # contract): the same object is retried next cycle
            if ins.is_mem and not lsq.dispatch(ins):
                self._release_reg(ins)
                return
            fq.popleft()
            seq = ins.seq
            inflight[seq] = ins
            rob_buf.append(ins)  # capacity checked above
            # register dependences: a producer still in flight and not yet
            # done gates issue (stores and branches write no register);
            # a store's data operand (src2) gates only its data, not AGU
            deps = 0
            data_ready = True
            if ins.src1:
                pseq = seq - ins.src1
                prod = inflight.get(pseq)
                if prod is not None and not prod.done and not (
                    prod.is_store or prod.is_branch
                ):
                    deps = 1
                    bucket = waiters.get(pseq)
                    if bucket is None:
                        waiters[pseq] = [ins]
                    else:
                        bucket.append(ins)
            if ins.src2:
                pseq = seq - ins.src2
                prod = inflight.get(pseq)
                if prod is not None and not prod.done and not (
                    prod.is_store or prod.is_branch
                ):
                    if ins.is_store:
                        data_ready = False
                        self._data_waiters.setdefault(pseq, []).append(ins)
                    else:
                        deps += 1
                        bucket = waiters.get(pseq)
                        if bucket is None:
                            waiters[pseq] = [ins]
                        else:
                            bucket.append(ins)
            # enter the issue queue (capacity checked above): ready now,
            # or when the last producer wakes it
            iq.size += 1
            if deps:
                ins.deps_left = deps
            else:
                heappush(iq._ready, (seq, ins))
            if ins.is_store:
                ins.store_data_ready = data_ready
                ins.disamb_resolved = False
                self._unresolved_stores.append(ins)

    # ------------------------------------------------------------------
    # stage 7: fetch
    # ------------------------------------------------------------------
    def _fetch(self) -> None:
        if self._fetch_stall_seq is not None or self.cycle < self._fetch_block_until:
            return
        fq = self.fetch_queue
        cap = self._fetch_cap
        line_shift = self.mem.l1i.line_shift
        for _ in range(self._fetch_width):
            if len(fq) >= cap:
                return
            ins = self._next_ins()
            if ins is None:
                return
            iline = ins.pc >> line_shift
            if iline != self._last_iline:
                self._last_iline = iline
                lat = self.mem.iaccess(ins.pc)
                if lat > self.cfg.mem.l1i_latency:
                    self._fetch_block_until = self.cycle + lat
                    fq.append(ins)
                    if ins.is_branch:
                        self._predict(ins)
                    return
            fq.append(ins)
            if ins.is_branch:
                if self._predict(ins):
                    return  # mispredict: stall until resolution
                if ins.taken:
                    self._last_iline = -1
                    return  # taken-branch fetch break

    def _predict(self, ins: InFlight) -> bool:
        """Returns True when fetch must stall (misprediction/misfetch)."""
        pred_taken = self.predictor.predict(ins.pc)
        target = self.btb.lookup(ins.pc) if pred_taken else None
        mispredict = pred_taken != ins.taken or (
            ins.taken and (target is None or target != ins.target)
        )
        if mispredict:
            self.predictor.mispredicts.add()
            self._fetch_stall_seq = ins.seq
            self._last_iline = -1
        return mispredict

    # ------------------------------------------------------------------
    # flush (deadlock avoidance, §3.3)
    # ------------------------------------------------------------------
    def _flush(self, reason: str) -> None:
        head = self.rob.head()
        restart_seq = head.seq if head is not None else self._fetch_seq
        if self._ctrace is not None:
            self._ctrace.event(
                self.cycle, "flush", reason=reason, restart_seq=restart_seq,
                squashed=len(self._inflight),
            )
        self.rob.clear()
        self._inflight.clear()
        self._waiters.clear()
        self._data_waiters.clear()
        self._pending_loads.clear()
        self._pending_min = _NO_SEQ
        self._unresolved_stores.clear()
        self._events.clear()
        self.int_iq.clear()
        self.fp_iq.clear()
        for pool in self.pools.values():
            pool.flush()
        self.fetch_queue.clear()
        self.lsq.flush()
        self._fetch_stall_seq = None
        self._fetch_seq = restart_seq
        self._last_iline = -1
        self._int_regs_used = 0
        self._fp_regs_used = 0
        self._flush_requested = False
        self._last_commit_cycle = self.cycle
        if reason == "deadlock":
            self.deadlock_flushes += 1
            self.lsq.stats.deadlock_flushes += 1
        elif reason == "overflow":
            self.overflow_flushes += 1

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the machine by one cycle.

        Stage methods are only invoked when their inputs are non-empty
        (events scheduled, ROB/issue-heap/pending-load occupancy, fetch
        not stalled): a skipped stage is one that would have done nothing,
        so results are bit-identical to the unconditional ordering while
        quiescent stages cost nothing.  Telemetry (stage 8) costs one
        identity test against the LSQ's cached area breakdown; see
        :meth:`_flush_area`.
        """
        cycle = self.cycle
        # inlined MemoryHierarchy.new_cycle: advance the fill clock,
        # release ports, retire completed MSHR fills when any exist
        mem = self.mem
        mem.cycle = mem_cycle = mem.cycle + 1
        dports = mem.dports
        if dports._used:
            dports._used = 0
        dmshr = mem.dmshr
        if not dmshr.blocking:
            if dmshr._inflight:
                dmshr.retire(mem_cycle)
            imshr = mem.imshr
            if imshr._inflight:
                imshr.retire(mem_cycle)
        for pool in self._pool_list:
            # FU pools: reset issue bandwidth and release finished
            # non-pipelined units only when present
            if pool._issued_this_cycle:
                pool._issued_this_cycle = 0
            if pool._busy_until:
                pool._busy_until = [c for c in pool._busy_until if c > cycle]
        begin = self._lsq_begin_cycle
        if begin is not None:
            begin(cycle)
        if cycle in self._events:
            self._complete()
        if self._flush_requested:
            self._flush(reason="overflow")
        elif (
            self._inflight
            and cycle - self._last_commit_cycle > self._watchdog
        ):
            # deadlock-avoidance backstop (paper §3.3): the window cannot
            # drain; squash and refetch from the head
            self._flush(reason="deadlock")
        elif self.rob.buf:
            self._commit()
        if self._pending_loads:
            self._memory_issue()
        if self.int_iq._ready or self.fp_iq._ready:
            self._issue()
        if self.fetch_queue:
            self._dispatch()
        if self._fetch_stall_seq is None and cycle >= self._fetch_block_until:
            self._fetch()
        # stage 8: telemetry (active area, occupancies).  The LSQ caches
        # its breakdown dict and rebuilds it (a new object) on every
        # occupancy change, so one identity test tells whether the held
        # run of unchanged state goes on through this cycle
        if not self._skip_area:
            bd = self._lsq_area_breakdown()
            if bd is not self._held_bd:
                self._flush_area(cycle, bd)
        if self._ctrace is not None:
            self._ctrace.snap(self)
        self.cycle = cycle + 1

    def _flush_area(self, upto: int, bd: dict[str, float] | None) -> None:
        """Close the held stage-8 run at cycle ``upto``; hold ``bd``.

        Stage 8 samples the LSQ state at the end of every cycle: its
        area breakdown, the SharedLSQ occupancy and whether the
        AddrBuffer is busy.  The state is charged once per run of
        cycles over which it held -- steps and skipped spans alike --
        as ``area * n``, ``n`` histogram samples, ``n`` busy cycles and
        ``n`` area cycles.  A run closes when the breakdown object
        changes (the caller passes the one it just fetched), at a stats
        reset and at :meth:`result`.  The Table 5 areas are integral
        um^2 (guarded by tests/test_bit_identity.py), so the
        accumulators only ever hold integers far below 2**53 and one
        multiply-add equals n repeated additions bit for bit -- the
        same regrouping argument as SamieLSQ.area_breakdown.
        """
        n = upto - self._held_since
        if n:
            held = self._held_bd
            if held is not None:
                area_cycles = self._area_acc
                for comp, area in held.items():
                    area_cycles[comp] += area * n
            self.area.cycles += n
            if self._sample_occ:
                hist = self.shared_occ_hist
                occ = self._held_occ
                if occ <= hist.max_value:
                    hist.buckets[occ] += n
                else:
                    hist.overflow += n
                if self._held_ab:
                    self.addr_buffer_busy_cycles += n
        self._held_since = upto
        self._held_bd = bd
        if self._sample_occ:
            self._held_occ = len(self._occ_list)
            self._held_ab = bool(self._ab_buf)

    def reset_stats(self) -> None:
        """Zero all measurement state, keeping architectural state warm.

        Mirrors the paper's methodology: caches/predictors are warmed up
        before measurement starts.
        """
        self._stat_cycle0 = self.cycle
        self._stat_committed0 = self.committed
        self.lsq.energy.reset()
        self.lsq.stats = type(self.lsq.stats)()
        self.cache_energy.reset()
        self.area.reset()
        # restart the held stage-8 run here: its earlier cycles belong
        # to the measurement epoch that was just zeroed
        self._held_since = self.cycle
        if self._skip_area:
            # re-seed the constant-zero components dropped by the reset
            for comp, area in self.lsq.area_breakdown().items():
                self._area_acc[comp] += area
        self.shared_occ_hist = Histogram(max_value=512)
        self.addr_buffer_busy_cycles = 0
        self.deadlock_flushes = 0
        self.overflow_flushes = 0
        self.predictor.lookups.reset()
        self.predictor.mispredicts.reset()
        self.btb.hits.reset()
        self.btb.misses.reset()
        for cache in (self.mem.l1i, self.mem.l1d, self.mem.l2):
            cache.stats.__init__()
        for tlb in (self.mem.itlb, self.mem.dtlb):
            tlb.hits.reset()
            tlb.misses.reset()
        self.mem.reset_mshr_stats()
        self.data_violations.clear()
        self.committed_load_values.clear()

    def committed_memory(self) -> dict[int, int]:
        """Byte -> seq of the last committed store (track_data mode).

        This is the architectural memory image after the run; the
        differential engine (:mod:`repro.verify.diff`) compares it against
        the golden in-order model's final state.
        """
        return dict(self._committed_mem)

    def run(
        self,
        max_instructions: int,
        max_cycles: int | None = None,
        warmup: int = 0,
    ) -> SimResult:
        """Run until ``max_instructions`` commit (or the trace/cycles end).

        ``warmup`` instructions are executed first with statistics
        discarded (caches, TLBs and predictors stay warm), mirroring the
        paper's 100M-instruction warm-up phase.
        """
        if self._trace is None:
            raise RuntimeError("attach_trace() first")
        if warmup:
            # cycle limit must be relative to the current cycle: sampled
            # replay calls run() repeatedly on one pipeline instance
            self._run_until(self.committed + warmup, self.cycle + warmup * 100)
            self.reset_stats()
        limit = max_cycles if max_cycles is not None else max_instructions * 100
        self._run_until(self.committed + max_instructions, self.cycle + limit)
        return self.result()

    def _run_until(self, target_committed: int, cycle_limit: int) -> None:
        step = self.step
        # a cycle tracer and per-poll MSHR stall counting must see every
        # cycle, so both keep the stepped loop
        if self.event_skip and self._ctrace is None and self.mem.interval_stall_stats:
            skip = self._skip_quiescent
            while self.committed < target_committed and self.cycle < cycle_limit:
                if self._trace_exhausted and not self._inflight and not self.fetch_queue:
                    break
                step()
                # re-check the commit target before skipping: once the
                # final instruction has committed, a skip would only
                # inflate the cycle count past where a stepped run stops
                if self.committed >= target_committed:
                    break
                skip(cycle_limit)
            return
        while self.committed < target_committed and self.cycle < cycle_limit:
            if self._trace_exhausted and not self._inflight and not self.fetch_queue:
                break
            step()

    def _skip_quiescent(self, cycle_limit: int) -> None:
        """Jump over cycles on which no stage can make progress.

        Runs between steps unless the stepped loop is forced (see
        :attr:`event_skip` and :meth:`_run_until`).  The guard is
        *a priori*: every stage must be provably unable to act before
        any cycle is skipped, because several per-cycle probes are not
        no-ops when they can act (SAMIE AddrBuffer drains and ARB
        placement retries charge energy/stats per attempt, a blocked
        ready load re-routes every cycle, an unplaced ROB head triggers
        a priority placement).  When the guard holds, the pipeline can
        only be woken by a threshold event with a known cycle: the
        earliest scheduled event, the fetch-stall horizon, the earliest
        D-side fill completion, or the commit watchdog.  The clocks
        jump straight to the earliest wake.  Stage-8 telemetry needs no
        replay: the LSQ state cannot change while quiescent, so the
        skipped span is simply part of the held run (:meth:`_flush_area`)
        and results match with skipping on or off (enforced by
        tests/test_event_skip.py and the CI ``mshr-smoke`` job).
        """
        cycle = self.cycle
        # an event already due next cycle: nothing to skip
        if cycle in self._events:
            return
        # anything issuable, or a pending overflow flush: active
        if self.int_iq._ready or self.fp_iq._ready or self._flush_requested:
            return
        wake = cycle_limit
        # fetch: able to pull from the trace next cycle -> active; an
        # I-miss block ends at a known cycle, a mispredict stall ends
        # via the branch's exec event (covered by the event scan below)
        if self._fetch_stall_seq is None:
            fbu = self._fetch_block_until
            if cycle >= fbu:
                if len(self.fetch_queue) < self._fetch_cap and not self._trace_exhausted:
                    return
            elif fbu < wake:
                wake = fbu
        if self._trace_exhausted and not self._inflight and not self.fetch_queue:
            return  # fully drained: the run loop's break condition fires
        lsq = self.lsq
        if not lsq.quiescent():
            return  # AddrBuffer drain / placement retries charge per cycle
        mem = self.mem
        rob = self.rob
        buf = rob.buf
        fq = self.fetch_queue
        if fq and len(buf) < rob.capacity:
            # dispatch: able to admit the queue head next cycle -> active;
            # a full IQ / exhausted regs / refusing LSQ only free at
            # commit or issue, both covered by the wake sources below
            u0 = fq[0]
            iq = self.fp_iq if u0.is_fp else self.int_iq
            if iq.size < iq.capacity:
                if u0.is_fp:
                    regs_free = self._fp_regs_used < self.cfg.fp_regs
                elif u0.needs_int_reg:
                    regs_free = self._int_regs_used < self.cfg.int_regs
                else:
                    regs_free = True
                if regs_free and not (u0.is_mem and lsq.dispatch_would_block()):
                    return
        if buf:
            head = buf[0]
            if head.is_mem and head.addr_ready and head.placement is None:
                return  # head_blocked() probe is not a no-op (placement try)
            if head.done and not (
                head.is_store and mem.daccess_blocked(head.addr, head, probe=True)
            ):
                return  # head would commit (or contend for a write port)
            # otherwise the head resumes via an event or a fill retire;
            # the deadlock watchdog still fires on schedule
        if self._inflight:
            wd = self._last_commit_cycle + self._watchdog + 1
            if wd < wake:
                wake = wd
        if self._pending_loads:
            # a ready pending load acts every cycle it is polled (route
            # arbitration charges energy even while MSHR-blocked), so
            # any live one not gated by disambiguation/operands is active;
            # no walk when an older unresolved store gates them all
            q = self._unresolved_stores
            frontier = q[0].seq if q else _NO_SEQ
            if frontier >= self._pending_min:
                inflight = self._inflight
                for ld in self._pending_loads:
                    if ld.seq not in inflight or ld.mem_started or ld.seq > frontier:
                        continue  # inert, or unblocks via a store's events
                    if lsq.load_ready(ld):
                        return
        if self._events:
            ev = min(self._events)
            if ev < wake:
                wake = ev
        dmshr = mem.dmshr
        if dmshr._inflight:
            # blocked store heads / merged accesses resume the cycle
            # after the fill retires (retire runs on the advanced clock)
            w = dmshr._min_ready - 1
            if w < wake:
                wake = w
        n = wake - cycle
        if n <= 0:
            return
        self.skipped_cycles += n
        self.cycle = wake
        mem.cycle = wake

    def result(self) -> SimResult:
        """Snapshot the run statistics."""
        self._flush_area(self.cycle, self._held_bd)
        l1d = self.mem.l1d.stats
        dtlb = self.mem.dtlb
        dtlb_total = dtlb.hits.value + dtlb.misses.value
        stats = self.lsq.stats
        cycles = self.cycle - self._stat_cycle0
        return SimResult(
            instructions=self.committed - self._stat_committed0,
            cycles=cycles,
            lsq_name=self.lsq.name,
            lsq_energy_pj=self.lsq.energy.as_dict(),
            cache_energy_pj=self.cache_energy.as_dict(),
            area_um2_cycles=self.area.as_dict(),
            deadlock_flushes=self.deadlock_flushes,
            mispredict_rate=self.predictor.mispredict_rate,
            l1d_miss_rate=l1d.miss_rate,
            dtlb_miss_rate=dtlb.misses.value / dtlb_total if dtlb_total else 0.0,
            lsq_stats=vars(stats).copy() if hasattr(stats, "__dict__") else {
                k: getattr(stats, k) for k in stats.__dataclass_fields__
            },
            shared_occupancy_mean=self.shared_occ_hist.mean,
            shared_occupancy_p99=self.shared_occ_hist.quantile(0.99),
            addr_buffer_busy_frac=(
                self.addr_buffer_busy_cycles / cycles if cycles else 0.0
            ),
            data_violations=len(self.data_violations),
            extra=build_extra(mshr=self.mem.mshr_stats()),
        )

"""Composite memory hierarchy: L1I, L1D, unified L2, ITLB, DTLB, MSHRs.

Latency model (Table 2 of the paper): L1I 1 cycle; L1D 2 cycles, 4 R/W
ports; L2 10-cycle hit / 100-cycle miss; TLBs 1 cycle.  TLB misses add a
software-walk penalty (configurable, default 30 cycles, SimpleScalar's
default).

The hierarchy is *non-blocking*: primary misses allocate a miss-status
holding register (:mod:`repro.mem.mshr`) recording when the fill
completes, and later accesses to an in-flight line *merge* into that
entry -- they stall only until fill completion instead of paying a fresh
miss.  When the MSHR file (or an entry's target slots) is exhausted the
access is structurally stalled: :meth:`daccess_blocked` reports it and
the pipeline retries next cycle.  The degenerate geometry
``mshr_entries=1, mshr_targets=1`` short-circuits all of this: the
instant-fill model charges each miss its own full latency, lets any
number of misses be outstanding and installs the line at access time,
reproducing the pre-MSHR model's cycle counts bit-identically.

The paper's performance study deliberately does *not* exploit the lower
access time of known-way accesses (§3.6); ``fast_way_hit_latency`` exists
for the future-work ablation bench and is disabled (equal to the normal
latency) by default.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.cache import Cache, AccessResult
from repro.mem.mshr import MSHRFile
from repro.mem.ports import PortPool
from repro.mem.tlb import TLB


@dataclass
class MemConfig:
    """Memory hierarchy geometry and latencies (defaults = paper Table 2).

    Picklable and declaratively overridable per sweep point: the sweep
    engine's ``SimSpec.mem`` carries ``(field, value)`` overrides of this
    dataclass (with ``l1d_sets``/``l1d_ways`` sugar), so cache-geometry x
    LSQ-geometry cross-product grids share the memo/disk-cache machinery.
    """

    l1i_size: int = 64 * 1024
    l1i_assoc: int = 2
    l1i_line: int = 32
    l1i_latency: int = 1

    l1d_size: int = 8 * 1024
    l1d_assoc: int = 4
    l1d_line: int = 32
    l1d_latency: int = 2
    l1d_ports: int = 4

    l2_size: int = 512 * 1024
    l2_assoc: int = 4
    l2_line: int = 64
    l2_hit_latency: int = 10
    l2_miss_latency: int = 100

    tlb_entries: int = 128
    page_bytes: int = 4096
    tlb_miss_latency: int = 30

    #: miss-status holding registers per cache side (non-blocking fills);
    #: ``mshr_entries=1, mshr_targets=1`` selects the instant-fill model
    #: (full latency per miss, unbounded outstanding misses, line
    #: installed at access time) that reproduces the pre-MSHR model
    #: bit-identically
    mshr_entries: int = 8
    mshr_targets: int = 4

    #: L1D hit latency when the physical way is known (ablation only);
    #: None means "same as l1d_latency" (the paper's evaluated configuration).
    fast_way_hit_latency: int | None = None


@dataclass(slots=True)
class DAccessOutcome:
    """Timing and placement outcome of one data-side access.

    An L1 hit of the tracked-fill model returns a shared instance, one
    per (hit result, TLB hit, latency); no code mutates an outcome, and
    none may.
    """

    latency: int
    l1: AccessResult | None
    l1_hit: bool
    l2_hit: bool
    tlb_hit: bool
    #: access folded into an outstanding fill (stalls until completion)
    merged: bool = False
    #: primary miss that allocated an MSHR entry
    mshr_fill: bool = False
    #: structurally stalled (MSHR entry/target exhaustion): no state was
    #: touched and the caller must retry a later cycle
    blocked: bool = False


#: sentinel outcome for a structurally stalled access (no side effects)
_BLOCKED = DAccessOutcome(0, None, False, False, False, blocked=True)


class MemoryHierarchy:
    """Owns the caches/TLBs/MSHRs and computes end-to-end access latencies."""

    def __init__(self, cfg: MemConfig | None = None):
        self.cfg = cfg or MemConfig()
        c = self.cfg
        self.l1i = Cache(c.l1i_size, c.l1i_assoc, c.l1i_line, "l1i")
        self.l1d = Cache(c.l1d_size, c.l1d_assoc, c.l1d_line, "l1d")
        self.l2 = Cache(c.l2_size, c.l2_assoc, c.l2_line, "l2")
        self.itlb = TLB(c.tlb_entries, c.page_bytes, c.tlb_miss_latency)
        self.dtlb = TLB(c.tlb_entries, c.page_bytes, c.tlb_miss_latency)
        self.dports = PortPool(c.l1d_ports)
        self.dmshr = MSHRFile(c.mshr_entries, c.mshr_targets, "dmshr")
        self.imshr = MSHRFile(c.mshr_entries, c.mshr_targets, "imshr")
        #: advanced by :meth:`new_cycle`; the clock MSHR fills retire on
        self.cycle = 0
        #: closed-form stall charging (see :meth:`daccess_blocked`).
        #: False retains the historical one-per-polled-cycle reference
        #: accounting, kept for the interval-vs-polled differential tier
        #: in tests/test_mshr.py; the two are cycle-for-cycle equal.
        self.interval_stall_stats = True
        #: (shared L1 hit result, TLB hit, latency) -> the shared outcome
        #: of such a hit (see :meth:`daccess`)
        self._hit_outcomes: dict[tuple, DAccessOutcome] = {}
        #: bumped by :meth:`reset_mshr_stats`; invalidates every token's
        #: ``stall_charged_until`` watermark so an episode straddling a
        #: stats reset (warmup boundary, measured-window start) re-charges
        #: its remaining span into the fresh counters -- exactly the
        #: cycles per-poll counting would have recorded there.
        self._stall_epoch = 0

    # ------------------------------------------------------------------
    def new_cycle(self) -> None:
        """Advance the hierarchy clock: release ports, retire completed
        fills (freeing their MSHR entries for new misses).

        NOTE: ``Pipeline.step()`` inlines this body on the detailed
        cycle loop for speed -- keep the two in sync when changing the
        per-cycle protocol (this method still serves tests and any
        future non-pipeline driver)."""
        cycle = self.cycle + 1
        self.cycle = cycle
        dports = self.dports
        if dports._used:
            dports._used = 0
        # hot path: skip the retire scans entirely while nothing is in
        # flight (the common case for the I-side and quiet D-side phases)
        dmshr = self.dmshr
        if not dmshr.instant_fill:
            if dmshr._inflight:
                dmshr.retire(cycle)
            if self.imshr._inflight:
                self.imshr.retire(cycle)

    # ------------------------------------------------------------------
    def _miss_latency(self, addr: int, write: bool) -> tuple[int, bool]:
        """(latency beyond L1, L2 hit?) of a line fill for ``addr``."""
        c = self.cfg
        l2res = self.l2.access(addr >> self.l2.line_shift, write)
        return (c.l2_hit_latency if l2res.hit else c.l2_miss_latency), l2res.hit

    def daccess_blocked(self, addr: int, token=None, probe: bool = False) -> bool:
        """Would a data access structurally stall on MSHR exhaustion?

        The pipeline polls this before claiming a port.  Stall duration
        is charged in closed form: with a ``token`` (the polling
        :class:`~repro.core.inflight.InFlight`, which carries the
        ``stall_charged_until`` watermark) the first blocked poll of an
        episode charges the whole interval up to the blocking fill's
        ready cycle at once, and re-polls of the same episode charge
        nothing.  This equals one-per-polled-cycle counting exactly: a
        blocked access can only unblock when the fill it waits on
        retires -- target slots never free early, and while the file is
        full no entry for the line can appear (the line was inserted
        into L1 when its fill was allocated, so a retired fill turns
        the re-poll into an L1 probe hit, never a fresh allocation
        race).  Token-less calls (direct users, tests) keep the
        historical per-poll increment, as does
        ``interval_stall_stats=False`` (the differential reference
        mode).  Charging nothing on re-polls is also what legalizes
        the pipeline's event-driven cycle skip: a skipped quiescent
        poll has no increment left to lose.

        ``probe=True`` marks an end-of-cycle quiescence-guard probe
        rather than a stage poll: the stage that owns the token will
        first poll it on the *next* cycle, so the charge starts one
        cycle later (and reference-mode counting ignores the probe
        entirely).  This keeps skip-on and skip-off runs bit-identical
        even when a store turns ``done`` after commit already ran.
        """
        mshr = self.dmshr
        if mshr.instant_fill:
            return False
        # the MSHR dict is read directly (lookup / can_merge /
        # can_allocate inlined), and L1 is probed only when the file is
        # full: with a free entry a primary miss can always start
        inflight = mshr._inflight
        line = addr >> self.l1d.line_shift
        entry = inflight.get(line)
        if entry is not None:
            if entry.targets_used >= mshr.targets:
                self._charge_stall(mshr, token, entry.ready_cycle, True, probe)
                return True
            return False
        if len(inflight) < mshr.entries or self.l1d.probe(line) is not None:
            return False
        self._charge_stall(mshr, token, mshr._min_ready, False, probe)
        return True

    def _charge_stall(self, mshr: MSHRFile, token, until: int,
                      target: bool, probe: bool = False) -> None:
        """Account one blocked poll (see :meth:`daccess_blocked`)."""
        stats = mshr.stats
        if token is None or not self.interval_stall_stats:
            if probe:
                return  # guard probe: not a polled cycle
            if target:
                stats.target_stall_cycles += 1
            else:
                stats.entry_stall_cycles += 1
            return
        if token.stall_epoch != self._stall_epoch:
            token.stall_epoch = self._stall_epoch
            token.stall_charged_until = 0
        start = token.stall_charged_until
        floor = self.cycle + 1 if probe else self.cycle
        if start < floor:
            start = floor
        if until <= start:
            return  # episode already charged (re-poll / same-cycle probe)
        token.stall_charged_until = until
        if target:
            stats.target_stall_cycles += until - start
        else:
            stats.entry_stall_cycles += until - start

    def daccess(
        self,
        addr: int,
        write: bool,
        skip_tlb: bool = False,
        way_known: bool = False,
    ) -> DAccessOutcome:
        """Access the data side for the byte address ``addr``.

        ``skip_tlb`` models a cached translation in the LSQ entry;
        ``way_known`` models a presentBit hit (identical latency unless the
        fast-way ablation is enabled).  Energy is accounted by the caller
        (it depends on the LSQ model); this method handles placement and
        timing only.  A structurally stalled access (see
        :meth:`daccess_blocked`) returns a ``blocked`` outcome with no
        state touched; callers normally pre-check and retry instead.
        """
        c = self.cfg
        line = addr >> self.l1d.line_shift
        if self.dmshr.instant_fill:
            # instant fill: the pre-MSHR model, full latency per miss
            tlb_hit = True
            latency = 0
            if not skip_tlb:
                tlb_hit = self.dtlb.access(addr)
                if not tlb_hit:
                    latency += self.dtlb.miss_latency
            l1res = self.l1d.access(line, write)
            l2_hit = True
            if l1res.hit:
                if way_known and c.fast_way_hit_latency is not None:
                    latency += c.fast_way_hit_latency
                else:
                    latency += c.l1d_latency
            else:
                miss_lat, l2_hit = self._miss_latency(addr, write)
                latency += c.l1d_latency + miss_lat
            return DAccessOutcome(latency, l1res, l1res.hit, l2_hit, tlb_hit)

        # tracked fills: resolve the MSHR question before touching state,
        # so a blocked access leaves caches/TLB stats untouched (the MSHR
        # dict is read directly; L1 is probed only when the file is full)
        mshr = self.dmshr
        inflight = mshr._inflight
        entry = inflight.get(line)
        if entry is not None:
            if entry.targets_used >= mshr.targets:
                mshr.stats.target_stall_cycles += 1
                return _BLOCKED
        elif len(inflight) >= mshr.entries and self.l1d.probe(line) is None:
            mshr.stats.entry_stall_cycles += 1
            return _BLOCKED

        tlb_hit = True
        latency = 0
        if not skip_tlb:
            tlb_hit = self.dtlb.access(addr)
            if not tlb_hit:
                latency += self.dtlb.miss_latency
        l1res = self.l1d.access(line, write)
        if entry is not None:
            # secondary access: the data arrives with the in-flight fill
            # (inlined MSHRFile.merge: the free target slot is checked)
            entry.targets_used += 1
            mshr.stats.merges += 1
            latency += max(c.l1d_latency, entry.ready_cycle - self.cycle)
            return DAccessOutcome(latency, l1res, l1res.hit, True, tlb_hit,
                                  merged=True)
        if l1res.hit:
            if way_known and c.fast_way_hit_latency is not None:
                latency += c.fast_way_hit_latency
            else:
                latency += c.l1d_latency
            # a hit's outcome is fixed by its shared result, the TLB
            # outcome and the latency: build each one once
            key = (l1res, tlb_hit, latency)
            out = self._hit_outcomes.get(key)
            if out is None:
                out = self._hit_outcomes[key] = DAccessOutcome(
                    latency, l1res, True, True, tlb_hit)
            return out
        # primary miss: start the fill and track it until completion
        miss_lat, l2_hit = self._miss_latency(addr, write)
        fill_lat = c.l1d_latency + miss_lat
        mshr.allocate(line, self.cycle + fill_lat)
        latency += fill_lat
        return DAccessOutcome(latency, l1res, False, l2_hit, tlb_hit,
                              mshr_fill=True)

    # ------------------------------------------------------------------
    def iaccess(self, pc: int) -> int:
        """Fetch-side access for the instruction at ``pc``; returns latency.

        The fetch stage blocks on the returned latency rather than
        retrying, so I-side MSHR exhaustion falls back to instant-fill
        accounting (full miss latency, nothing tracked) instead of a
        structural stall.
        """
        c = self.cfg
        tlb_hit = self.itlb.access(pc)
        latency = 0 if tlb_hit else self.itlb.miss_latency
        line = pc >> self.l1i.line_shift
        mshr = self.imshr
        if not mshr.instant_fill:
            entry = mshr.lookup(line)
            if entry is not None and mshr.merge(entry):
                self.l1i.access(line, write=False)
                return latency + max(c.l1i_latency, entry.ready_cycle - self.cycle)
        res = self.l1i.access(line, write=False)
        if res.hit:
            return latency + c.l1i_latency
        miss_lat, _ = self._miss_latency(pc, write=False)
        fill_lat = c.l1i_latency + miss_lat
        if not mshr.instant_fill:
            if mshr.can_allocate():
                mshr.allocate(line, self.cycle + fill_lat)
            else:
                mshr.stats.fallback_blocking += 1
        return latency + fill_lat

    # ------------------------------------------------------------------
    # functional-warming paths (trace sampling): touch long-lived state
    # -- L1 caches, TLBs, LRU -- without ports, MSHRs, timing or
    # statistics, so skipped uops can neither leak in-flight miss state
    # into the detailed windows nor contaminate the measured hit/miss
    # rates (warm-traffic totals are accounted by the warm engine under
    # ``extra["sampling"]["warm"]`` instead).  The L2 is deliberately
    # NOT warmed: its content under capacity pressure is extremely
    # sensitive to the exact L1+MSHR-filtered access stream, which a
    # program-order functional replay cannot reproduce -- empirically,
    # warming it flips 100-cycle L2 misses into 10-cycle hits wholesale
    # and biases sampled windows fast, while leaving it to the
    # per-window detailed warmup stays within the sampling error budget
    # (see tests/test_sampling_accuracy.py and ROADMAP.md "Trace
    # subsystem").
    # ------------------------------------------------------------------
    def warm_daccess(self, addr: int, write: bool) -> None:
        """Stat-free data-side touch with no MSHR/port/timing effects."""
        self.dtlb.warm_access(addr)
        self.l1d.warm_access(addr >> self.l1d.line_shift, write)

    def warm_iaccess(self, pc: int) -> None:
        """Stat-free fetch-side touch with no MSHR/timing effects."""
        self.itlb.warm_access(pc)
        self.l1i.warm_access(pc >> self.l1i.line_shift, write=False)

    # ------------------------------------------------------------------
    def mshr_stats(self) -> dict[str, int]:
        """Flat D-side + I-side MSHR counters (``SimResult.extra['mshr']``)."""
        out = self.dmshr.stats_dict("d_")
        out.update(self.imshr.stats_dict("i_"))
        return out

    def reset_mshr_stats(self) -> None:
        """Zero the MSHR counters (in-flight fills stay outstanding).

        Bumps the stall epoch so interval-charged episodes straddling
        the reset re-charge their post-reset remainder on the next poll
        (matching what per-poll counting records after the boundary).
        """
        self.dmshr.stats = type(self.dmshr.stats)()
        self.imshr.stats = type(self.imshr.stats)()
        self._stall_epoch += 1

"""Miss-status holding registers (MSHRs) for non-blocking caches.

An :class:`MSHRFile` tracks cache-line fills in flight: a *primary* miss
allocates an entry (consuming one of its target slots for the missing
access itself) and records the cycle its fill completes; a *secondary*
access to the same line while the fill is outstanding *merges* into the
entry by taking another target slot and stalls only until fill
completion, instead of paying a full miss or re-requesting the line.
When every entry is busy a new primary miss cannot start -- a structural
stall the pipeline models by retrying the access each cycle; likewise a
secondary access finding its entry's target slots exhausted waits for
the fill.

The degenerate geometry ``entries=1, targets=1`` selects the
*instant-fill* model instead, and :attr:`MSHRFile.instant_fill`
short-circuits the whole mechanism: each miss is charged its own full
latency, any number of misses may be outstanding (nothing is tracked,
so nothing stalls on MSHR exhaustion), and the line is installed at
access time, so later accesses to it hit at L1 latency before the fill
could have returned.  It does not block.  It reproduces the pre-MSHR
model's cycle counts bit-identically (guarded by
``tests/test_mshr.py``).

Miss merging follows standard memory-system practice (cf. the cache
-simulation methodology of arXiv:1406.5000 and the in-flight allocation
concerns of arXiv:2311.08198).
"""

from __future__ import annotations

from dataclasses import dataclass

#: a cycle never reached: ``MSHRFile._min_ready`` while nothing is in
#: flight (the pipeline's unit-release horizon uses it too)
NEVER = 1 << 62


@dataclass
class MSHRStats:
    """Aggregate MSHR event counts.

    ``*_stall_cycles`` count access-cycles an operation was held off --
    stall *duration*, not distinct stalled ops.  The hierarchy charges
    them in *closed form*: when an access first finds itself blocked,
    the whole interval up to the blocking fill's ready cycle is charged
    at once (``ready - now``), and later polls of the same stalled
    episode charge nothing.  This equals the historical
    one-per-polled-cycle definition exactly -- a blocked access can
    only unblock when the fill it waits on retires, never earlier --
    and the equivalence is enforced against a retained per-cycle
    reference mode by ``tests/test_mshr.py`` (interval-vs-polled
    differential tier).  The closed form is what makes event-driven
    cycle skipping stat-preserving: skipped quiescent cycles have no
    per-cycle increments left to miss.  The one documented divergence:
    an episode truncated by a pipeline flush or run end has already
    paid its full interval (the per-cycle form stopped counting at the
    truncation point).
    """

    allocations: int = 0
    merges: int = 0
    retired: int = 0
    entry_stall_cycles: int = 0
    target_stall_cycles: int = 0
    fallback_blocking: int = 0  # i-side: exhausted file charged as instant-fill
    peak_inflight: int = 0


class MSHREntry:
    """One outstanding line fill."""

    __slots__ = ("line", "ready_cycle", "targets_used")

    def __init__(self, line: int, ready_cycle: int):
        self.line = line
        self.ready_cycle = ready_cycle
        self.targets_used = 1  # the primary miss holds the first slot


class MSHRFile:
    """A file of miss-status holding registers with per-entry target slots."""

    def __init__(self, entries: int, targets: int, name: str = "mshr"):
        if entries < 1 or targets < 1:
            raise ValueError("need at least one MSHR entry and one target slot")
        self.name = name
        self.entries = entries
        self.targets = targets
        #: 1x1 selects the instant-fill model: no MSHR is tracked and
        #: every miss is charged its full latency (see module docstring)
        self.instant_fill = entries == 1 and targets == 1
        self._inflight: dict[int, MSHREntry] = {}
        #: earliest outstanding fill completion (NEVER while nothing is
        #: in flight): the per-cycle retire poll is one comparison with
        #: it until something can actually complete
        self._min_ready = NEVER
        self.stats = MSHRStats()

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._inflight)

    def lookup(self, line: int) -> MSHREntry | None:
        """The outstanding fill for ``line``, or None."""
        return self._inflight.get(line)

    def can_allocate(self) -> bool:
        """True when a new primary miss can take an entry."""
        return len(self._inflight) < self.entries

    def can_merge(self, entry: MSHREntry) -> bool:
        """True when ``entry`` still has a free target slot."""
        return entry.targets_used < self.targets

    # -- state changes -----------------------------------------------------
    def allocate(self, line: int, ready_cycle: int) -> MSHREntry:
        """Start tracking a primary miss; fill completes at ``ready_cycle``."""
        if not self.can_allocate():
            raise RuntimeError(f"{self.name}: no free MSHR entry")
        if line in self._inflight:
            raise RuntimeError(f"{self.name}: line {line:#x} already in flight")
        entry = MSHREntry(line, ready_cycle)
        if ready_cycle < self._min_ready:
            self._min_ready = ready_cycle
        self._inflight[line] = entry
        self.stats.allocations += 1
        if len(self._inflight) > self.stats.peak_inflight:
            self.stats.peak_inflight = len(self._inflight)
        return entry

    def merge(self, entry: MSHREntry) -> bool:
        """Fold a secondary access into ``entry``; False when slots are full."""
        if not self.can_merge(entry):
            return False
        entry.targets_used += 1
        self.stats.merges += 1
        return True

    def retire(self, cycle: int) -> int:
        """Release every entry whose fill has completed by ``cycle``."""
        inflight = self._inflight
        if not inflight or cycle < self._min_ready:
            return 0
        # one pass finds the completed fills and the next ready cycle
        done = []
        nxt = NEVER
        for line, e in inflight.items():
            ready = e.ready_cycle
            if ready <= cycle:
                done.append(line)
            elif ready < nxt:
                nxt = ready
        for line in done:
            del inflight[line]
        self._min_ready = nxt
        self.stats.retired += len(done)
        return len(done)

    def flush(self) -> None:
        """Drop all in-flight state (testing aid; fills are not squashed
        by pipeline flushes -- memory traffic already left the core)."""
        self._inflight.clear()
        self._min_ready = NEVER

    def stats_dict(self, prefix: str = "") -> dict[str, int]:
        """Flat ``{prefix+field: count}`` snapshot for SimResult.extra."""
        return {prefix + k: v for k, v in vars(self.stats).items()}

"""Common LSQ interface shared by the conventional, ARB and SAMIE models.

The pipeline drives every model through the same hooks so that an
experiment can swap designs without touching the core.  The contract:

* ``dispatch`` is called in program order when a memory instruction enters
  the window; returning False stalls dispatch (structure full) and must
  leave the instruction untouched, because the pipeline retries the same
  object.
* ``address_ready`` is called once the effective address is computed; the
  model performs placement/disambiguation bookkeeping and sets
  ``ins.disamb_resolved`` on stores once they no longer block younger
  loads.
* ``begin_cycle`` runs before issue on every cycle its ``retry_queue``
  is not empty (AddrBuffer drain, placement retries).
* ``load_ready``/``route_load`` gate and route a load's memory access;
  ``route_store_commit`` routes a store's cache write at commit.
* ``commit``/``flush`` release resources.
* ``record_location``/``on_l1_evict`` implement the SAMIE presentBit
  extension (no-ops elsewhere).
* ``active_area`` reports the power-gated active area in um^2 for the
  current cycle (the paper's leakage proxy); ``area_breakdown`` splits
  it per component.  Both are instantaneous queries: the pipeline does
  not sample them.  Each model integrates its own area instead
  (:mod:`repro.energy.leakage`): the pipeline writes the cycle into
  ``now`` at the start of every step, a model adds ``delta * now`` to
  an integer counter's change-weighted sum whenever the counter
  changes, ``area_reset`` starts a measurement epoch and
  ``area_integrals`` reads um^2 x cycles per component.

Energy is charged to the model's :class:`~repro.energy.accounting.
EnergyAccount` as events happen; the pipeline owns D-cache/DTLB energy
because the rates depend on routing decisions made here.

Conformance contract: any implementation of this interface must preserve
exact in-order load/store semantics -- every load observes the value of
the youngest older store to its bytes, every instruction commits exactly
once, and the final memory image matches sequential execution.  The
contract is enforced differentially by :mod:`repro.verify.diff`, which
runs fuzzed programs (:mod:`repro.verify.fuzz`) through every model
across a geometry grid and checks them against the golden in-order
oracle (:mod:`repro.verify.oracle`).  Run ``repro verify`` (see
:mod:`repro.verify.campaign`) before merging changes to any model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

from repro.core.inflight import InFlight
from repro.energy.accounting import EnergyAccount


class RouteKind(Enum):
    """How a load obtains its data."""

    CACHE = "cache"
    FORWARD = "forward"


@dataclass(slots=True)
class LoadRoute:
    """Routing decision for one load access.

    CACHE routes are the shared :data:`CACHE_LOAD_ROUTES` constants and
    FORWARD routes are built per load; no code mutates a route, and
    none may.
    """

    kind: RouteKind
    #: forwarding source (kind == FORWARD)
    store: InFlight | None = None
    #: D-cache access may skip the tag check / read one way (SAMIE)
    way_known: bool = False
    #: DTLB access may be skipped (SAMIE cached translation)
    skip_tlb: bool = False


@dataclass(slots=True)
class StoreRoute:
    """Routing decision for one store's cache write at commit.

    Always one of the shared :data:`CACHE_STORE_ROUTES` constants; no
    code mutates a route, and none may.
    """

    way_known: bool = False
    skip_tlb: bool = False


#: the shared CACHE routes, indexed ``[way_known][skip_tlb]``: the
#: common per-access outcome allocates nothing
CACHE_LOAD_ROUTES = tuple(
    tuple(LoadRoute(RouteKind.CACHE, way_known=w, skip_tlb=t) for t in (False, True))
    for w in (False, True)
)
CACHE_STORE_ROUTES = tuple(
    tuple(StoreRoute(way_known=w, skip_tlb=t) for t in (False, True))
    for w in (False, True)
)


@dataclass
class LSQStats:
    """Event counts common to every model."""

    dispatched: int = 0
    placed: int = 0
    placement_failures: int = 0
    loads_forwarded: int = 0
    loads_from_cache: int = 0
    addr_comparisons: int = 0
    deadlock_flushes: int = 0
    way_known_accesses: int = 0
    tlb_skipped_accesses: int = 0
    full_cache_accesses: int = 0


class BaseLSQ(ABC):
    """Abstract load/store queue.

    Declares ``__slots__`` so concrete models can opt into slotted
    layouts (the models are on the simulator's per-cycle hot path).
    """

    __slots__ = ("energy", "stats", "_fwd_load", "_fwd_src", "now", "_area_t0")

    name = "base"

    def __init__(self):
        self.energy = EnergyAccount()
        self.stats = LSQStats()
        #: the current cycle: area changes are charged at it
        self.now = 0
        #: first cycle of the area-integration epoch (see area_reset)
        self._area_t0 = 0
        #: the load whose forwarding source ``load_ready`` found last,
        #: and that source: ``route_load`` of the same load reuses it
        #: instead of searching again.  Every hook that can change a
        #: forwarding source (address_ready, begin_cycle, head_blocked,
        #: commit, flush) clears it.
        self._fwd_load: InFlight | None = None
        self._fwd_src: InFlight | None = None

    # -- lifecycle ---------------------------------------------------------
    @abstractmethod
    def dispatch(self, ins: InFlight) -> bool:
        """Program-order entry of a memory instruction; False stalls.

        A refusal must leave ``ins`` untouched -- no field written, no
        statistic or energy charged -- because the pipeline keeps the
        same object at the head of its fetch queue and retries it.
        """

    @abstractmethod
    def address_ready(self, ins: InFlight) -> None:
        """Effective address computed; place/record the instruction."""

    def begin_cycle(self, cycle: int) -> None:
        """Per-cycle housekeeping before issue (default: none)."""

    def retry_queue(self):
        """The container :meth:`begin_cycle` works through (AddrBuffer,
        placement retries); while it is empty ``begin_cycle`` must be a
        no-op, so the pipeline calls it only when the container is not
        empty.  The model mutates it in place, never rebinds it.  The
        default, for a model without per-cycle work, is always empty.
        """
        return ()

    def quiescent(self) -> bool:
        """True when :meth:`begin_cycle` (and any other per-cycle retry
        the model runs) would provably do nothing -- no state change, no
        energy or statistics charged.  The pipeline's event-driven cycle
        skip only engages while this holds, so a model whose per-cycle
        work is never a no-op must return False whenever that work is
        pending.  The default matches the default no-op ``begin_cycle``.
        """
        return True

    def dispatch_would_block(self) -> bool:
        """True when :meth:`dispatch` would certainly refuse the next
        memory instruction *and* that can only change at commit or
        flush.  Pure -- no stats, no energy.  The conservative default
        (False: "cannot prove it would block") merely disables the
        event-driven skip while a dispatch is pending, which is always
        safe.
        """
        return False

    @abstractmethod
    def load_ready(self, ins: InFlight) -> bool:
        """May this load start its memory access this cycle?"""

    @abstractmethod
    def route_load(self, ins: InFlight) -> LoadRoute:
        """Decide forward-vs-cache for a load whose ``load_ready`` is True."""

    @abstractmethod
    def route_store_commit(self, ins: InFlight) -> StoreRoute:
        """Route the cache write of a committing store."""

    @abstractmethod
    def commit(self, ins: InFlight) -> None:
        """Release the instruction's resources at commit."""

    @abstractmethod
    def flush(self) -> None:
        """Squash all in-flight state (pipeline flush)."""

    def store_data_arrived(self, ins: InFlight) -> None:
        """A store's data operand became available (datum write energy)."""

    def reserve_address(self) -> bool:
        """Reserve a landing spot for an address computation about to
        issue; False (nothing reserved) defers it to a later cycle.

        Implements the paper's §3.3 alternative to overflow flushes: an
        address computation only executes when it is guaranteed a landing
        spot (for SAMIE, a free AddrBuffer slot).  Default: always.
        """
        return True

    # -- SAMIE extension hooks (no-ops by default) ---------------------------
    def record_location(self, ins: InFlight, set_idx: int, way: int) -> None:
        """A cache access resolved the physical line location."""

    #: Contract flag for the vectorized warm engine: True promises that
    #: :meth:`on_l1_evict` is idempotent per ``set_idx``, ignores
    #: ``line_addr``, and touches disjoint state for distinct sets, so a
    #: skip gap's eviction burst may be collapsed to one call per
    #: touched set (see ``repro.trace.fastwarm._warm_cache``).  Holds
    #: for the default no-op and for SAMIE's whole-bank presentBit
    #: reset; a subclass whose hook reads the line address or counts
    #: calls must set this False to get exact per-eviction replay.
    evict_hook_set_idempotent: bool = True

    def on_l1_evict(self, set_idx: int, line_addr: int) -> None:
        """An L1 line was replaced; clear any cached locations."""

    # -- introspection -------------------------------------------------------
    @abstractmethod
    def head_blocked(self, ins: InFlight) -> bool:
        """True when the ROB-head memory instruction can never be placed
        without a flush (deadlock-avoidance trigger)."""

    @abstractmethod
    def active_area(self) -> float:
        """Active (non-power-gated) area in um^2 this cycle."""

    def area_breakdown(self) -> dict[str, float]:
        """Active area per component (default: single bucket)."""
        return {self.name: self.active_area()}

    def area_reset(self, t0: int) -> None:
        """Start a new area-integration epoch at cycle ``t0`` (a stats
        reset); a model with counters also sets each change-weighted
        sum ``W`` to ``x * t0``."""
        self._area_t0 = t0

    @abstractmethod
    def area_integrals(self, t: int) -> dict[str, float]:
        """Active area x cycles per component over cycles ``[t0, t)``,
        where the state at the end of each cycle holds for that cycle
        (``{}`` for an empty window, unless the model has no area at
        all and reports its zero component)."""

    @abstractmethod
    def occupancy(self) -> int:
        """Number of memory instructions currently held."""


def youngest_older_overlapping(
    load: InFlight, stores: list[InFlight]
) -> InFlight | None:
    """Find the youngest store older than ``load`` whose bytes overlap.

    ``stores`` may be in any order; ages are sequence numbers.
    """
    best: InFlight | None = None
    for st in stores:
        if st.seq < load.seq and st.addr_ready and st.overlaps(load):
            if best is None or st.seq > best.seq:
                best = st
    return best

"""SMARTS-style systematic interval sampling over any trace source.

The full dynamic stream is cut into fixed ``period``-instruction
intervals; from each interval the first ``warmup + measure`` uops are
simulated in detail (``warmup`` with statistics discarded, ``measure``
counted) and the rest are skipped.  With the synthetic workloads'
stationary behaviour -- and with real traces long enough for the law of
large numbers -- the measured IPC tracks the full-replay IPC at a
fraction ``(warmup + measure) / period`` of the simulation cost.

Known caveats (documented in ROADMAP.md):

* cold structures after a skip gap bias windows *slow*; the per-window
  detailed ``warmup`` re-heats them, and SMARTS-style *functional*
  warming (a warm engine, below) additionally touches the L1 caches,
  TLBs and branch predictor for every skipped uop.  Every sampled run
  warms: the detailed model charges duplicate in-flight misses itself
  (secondary accesses stall until fill completion), so pre-warmed L1
  lines do not erase a stall the full model would have charged.  The
  **L2 is deliberately not warmed**: its content under capacity
  pressure depends on the exact L1+MSHR-filtered miss stream, which
  program-order replay cannot reproduce -- warming it turns window L2
  misses into hits wholesale and biases fast.  Warming uses the
  hierarchy's stat-free ``warm_*`` paths, which bypass MSHRs, ports and
  the hit/miss counters, so skipped uops can neither leak in-flight
  miss state into a measured window nor contaminate the measured miss
  rates (warm totals are reported under ``extra["sampling"]["warm"]``
  instead).
* measure windows should be long relative to the worst stall (>= ~500
  instructions): a window absorbs stall tails in flight at its start
  but is cut at its final commit, a ~stall/window-length asymmetry that
  biases short windows slow.
* producer distances crossing a splice boundary are *clamped* at window
  starts (a distance cannot reach across a skip gap, so the stream
  clamps it to the uop's within-window position; position 0 means "no
  dependence").  The residual bias is the dependences genuinely cut at
  the boundary, bounded by the max dependence distance (48 in the
  synthetic ISA) per window and pinned by
  ``tests/test_trace.py::TestSampledReplay::test_splice_boundary_bias_bounded``.
* results are deterministic but *not* bit-identical to full replay --
  sampling error is the product being measured.  Use
  :func:`attach_error` to quantify it against a full run.

Warm engines
------------

Functional warming runs under one of two interchangeable engines:

* ``"scalar"`` -- :class:`ScalarWarmEngine`, one Python call per skipped
  uop.  Dumb, obviously correct, retained as the reference model (same
  pattern as ``repro.lsq.reference``).
* ``"vector"`` (default) -- :class:`repro.trace.fastwarm.VectorWarmEngine`,
  which drains each skip gap as one columnar numpy batch (zero-copy from
  ``.uoptrace`` frames via ``TraceStream.take_batch``, generated in
  columns by ``SyntheticStream.take_batch`` for the synthetic workloads)
  and replays every structure with exact-equivalence kernels.

The engines are **bit-identical** by contract -- post-warm cache/TLB/
predictor/BTB state and merged results match exactly (enforced by
``tests/test_fastwarm_equivalence.py`` and the CI ``trace-smoke`` job),
which is why the engine choice is *not* part of the result cache key.
Select per run with ``run_sampled(..., warm_engine=...)`` or the
``SimSpec.warm_engine`` field; ``repro run --sample-ratio`` uses the
vector default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.pipeline import Pipeline, SimResult
from repro.isa.uop import UOp
from repro.obs import spans as _spans
from repro.obs.telemetry import build_extra


@dataclass(frozen=True)
class SamplePlan:
    """Systematic sampling geometry, in instructions.

    ``period`` is the interval length; each interval contributes its
    first ``warmup`` uops (simulated, statistics discarded) and the
    following ``measure`` uops (counted) to the detailed simulation.
    """

    period: int
    warmup: int
    measure: int

    def __post_init__(self):
        if self.period <= 0 or self.measure <= 0 or self.warmup < 0:
            raise ValueError(f"bad sample plan {self}")
        if self.warmup + self.measure > self.period:
            raise ValueError(
                f"warmup+measure ({self.warmup}+{self.measure}) exceeds "
                f"period {self.period}"
            )

    @property
    def simulated_per_period(self) -> int:
        return self.warmup + self.measure

    @property
    def ratio(self) -> float:
        """Measured fraction of the stream (the headline sampling ratio)."""
        return self.measure / self.period

    @property
    def speedup(self) -> float:
        """Ideal simulation-cost ratio vs full replay."""
        return self.period / self.simulated_per_period

    @classmethod
    def from_ratio(
        cls, ratio: float, period: int = 10000, warmup_frac: float = 3.0
    ) -> "SamplePlan":
        """Plan measuring ``ratio`` of the stream; per-window warmup is
        ``warmup_frac`` x the measure window (~3x keeps the cold-start
        bias in the low percent at these window sizes).  The default
        period (10000) keeps splice boundaries rare relative to the
        MSHR-model's stall backlogs; shorter periods bias fast."""
        if not 0.0 < ratio < 1.0:
            raise ValueError(f"sampling ratio must be in (0, 1), got {ratio}")
        measure = max(1, round(period * ratio))
        warmup = round(measure * warmup_frac)
        if warmup + measure > period:
            # same boundary as __post_init__: a plan that exactly fills the
            # period (warmup + measure == period) is legal -- it degenerates
            # to full simulation with windowed statistics
            raise ValueError(
                f"ratio {ratio} with period {period} leaves nothing to skip "
                f"(measure {measure} + warmup {warmup} exceeds the period); "
                "use a smaller ratio/warmup_frac or plain full replay"
            )
        return cls(period=period, warmup=warmup, measure=measure)

    def key(self) -> tuple[int, int, int]:
        """Canonical cache-key fragment (see ``SimSpec.key``)."""
        return (self.period, self.warmup, self.measure)


class SampledStream:
    """Re-sequenced view of a trace keeping only sampled windows.

    Skipped uops are consumed from the source but not yielded; yielded
    uops are renumbered densely (the pipeline's generator contract) and
    their producer distances are clamped to the within-window position,
    so a dependence can never re-attach across a skip gap.
    ``consumed``/``yielded`` expose coverage.

    The skip path warms through ``engine``: an engine with a
    ``warm_batch`` method drains whole gaps as columnar batches (taken
    from the source's ``take_batch`` when it has one -- trace files and
    synthetic workloads -- else materialised from the iterator); an
    engine with only ``warm`` sees skipped uops one at a time.

    Over a source with ``take_batch`` the stream serves ``take_batch``
    too (an instance attribute, so the pipeline's fetch finds it only
    then): record batches of at most the rest of the current window,
    with the producer-distance clamp applied, so no detailed
    instruction is built as a ``UOp``.  The next gap is skipped at the
    request after the window's last record, the same fetch request as
    with ``next()``.  Fetch may hold records of its last batch it has
    not fetched; :meth:`unread` gives them back when the run ends.
    """

    def __init__(self, source: Iterable[UOp], plan: SamplePlan, engine):
        self._it = iter(source)
        self._plan = plan
        self._warm_batch = getattr(engine, "warm_batch", None)
        if self._warm_batch is None:
            self._warm = engine.warm
        self._source_batch = getattr(source, "take_batch", None)
        if self._source_batch is not None:
            self.take_batch = self._take_window
        self.consumed = 0
        self.yielded = 0

    def __iter__(self) -> Iterator[UOp]:
        return self

    def __next__(self) -> UOp:
        if not self._skip_gap():
            raise StopIteration
        u = next(self._it)
        pos = self.consumed % self._plan.period
        self.consumed += 1
        v = UOp(
            self.yielded, u.pc, u.op,
            src1=min(u.src1, pos), src2=min(u.src2, pos),
            addr=u.addr, size=u.size, taken=u.taken, target=u.target,
        )
        self.yielded += 1
        return v

    def _take_window(self, n: int):
        """Up to ``n`` records of the current window as one record
        batch (``take_batch`` of a stream over a batch source)."""
        if not self._skip_gap():
            return self._source_batch(0)
        pos = self.consumed % self._plan.period
        rec = self._source_batch(min(n, self._plan.simulated_per_period - pos))
        got = len(rec)
        if got:
            # a producer distance cannot reach back past the window start
            reach = np.arange(pos, pos + got)
            if (rec["src1"] > reach).any() or (rec["src2"] > reach).any():
                rec = rec.copy()  # never write the source's (shared) buffer
                np.minimum(rec["src1"], reach, out=rec["src1"], casting="unsafe")
                np.minimum(rec["src2"], reach, out=rec["src2"], casting="unsafe")
            self.consumed += got
            self.yielded += got
        return rec

    def unread(self, n: int) -> None:
        """Give back the last ``n`` records handed out by ``take_batch``
        that fetch never fetched: they count as neither consumed nor
        yielded, as with ``next()``, which hands out nothing unfetched."""
        self.consumed -= n
        self.yielded -= n

    def _skip_gap(self) -> bool:
        """Skip (warming) to the next window start once past the
        current window's end; False when the source ends first."""
        keep = self._plan.simulated_per_period
        period = self._plan.period
        while True:
            pos = self.consumed % period
            if pos < keep:
                return True
            if self._warm_batch is not None:
                if self._skip_batch(period - pos) == 0:
                    return False
                continue
            try:
                u = next(self._it)
            except StopIteration:
                return False
            self.consumed += 1
            self._warm(u)

    def _skip_batch(self, want: int) -> int:
        """Drain up to ``want`` skipped uops through the batch engine."""
        if self._source_batch is not None:
            rec = self._source_batch(want)
        else:
            rec = self._pull_batch(want)
        n = len(rec)
        if n:
            self.consumed += n
            self._warm_batch(rec)
        return n

    def _pull_batch(self, want: int):
        """Columnar batch for sources without ``take_batch`` support."""
        from repro.trace.fastwarm import uops_to_batch

        buf = []
        append = buf.append
        it = self._it
        try:
            for _ in range(want):
                append(next(it))
        except StopIteration:
            pass
        return uops_to_batch(buf)


class ScalarWarmEngine:
    """Reference functional warmer: one Python call per skipped uop.

    Touches the L1 D-cache/DTLB for memory ops, trains the branch
    predictor and BTB on branch outcomes, and streams instruction lines
    through the L1 I-cache (one access per line change, like the fetch
    stage).  No timing, ports, MSHRs, L2, energy or statistics -- the
    hierarchy's stat-free ``warm_*`` paths keep in-flight miss state
    (and the filter-sensitive L2) out of the picture and the measured
    hit/miss rates clean; warm-traffic totals accumulate here and are
    reported under ``extra["sampling"]["warm"]``.

    Retained as the reference model for the vectorized engine
    (:class:`repro.trace.fastwarm.VectorWarmEngine`), same pattern as
    ``repro.lsq.reference``: dumb, obviously correct, and the
    equivalence tier's ground truth.
    """

    name = "scalar"

    def __init__(self, pipe: Pipeline):
        self._mem = pipe.mem
        self._predictor = pipe.predictor
        self._btb = pipe.btb
        self._iline_shift = pipe.mem.l1i.line_shift
        self._last_iline = -1
        self.warmed = {"uops": 0, "iside": 0, "dside": 0, "branches": 0}

    def totals(self) -> dict:
        """Warm-traffic totals (``extra["sampling"]["warm"]``)."""
        return dict(self.warmed)

    def warm(self, u: UOp) -> None:
        """Feed one skipped uop through every long-lived structure."""
        w = self.warmed
        w["uops"] += 1
        iline = u.pc >> self._iline_shift
        if iline != self._last_iline:
            self._last_iline = iline
            w["iside"] += 1
            self._mem.warm_iaccess(u.pc)
        if u.is_mem:
            w["dside"] += 1
            self._mem.warm_daccess(u.addr, write=u.is_store)
        elif u.is_branch:
            w["branches"] += 1
            self._predictor.update(u.pc, u.taken, predicted=None)
            if u.taken:
                self._btb.update(u.pc, u.target)
                self._last_iline = -1


def make_warm_engine(pipe: Pipeline, warm_engine: str = "vector"):
    """Construct the named warm engine (``"scalar"`` or ``"vector"``).

    The engines are bit-identical by contract; the scalar one is the
    reference the equivalence tier checks the vector one against.
    """
    if warm_engine == "scalar":
        return ScalarWarmEngine(pipe)
    if warm_engine == "vector":
        from repro.trace.fastwarm import VectorWarmEngine

        return VectorWarmEngine(pipe)
    raise ValueError(
        f"unknown warm engine {warm_engine!r}; use 'scalar' or 'vector'"
    )


def _merge_counts(into: dict, add: dict) -> None:
    for k, v in add.items():
        into[k] = into.get(k, 0) + v


def _merge(windows: list[SimResult], plan: SamplePlan, stream: SampledStream,
           simulated: int, engine) -> SimResult:
    instructions = sum(r.instructions for r in windows)
    cycles = sum(r.cycles for r in windows)

    def iw(getter) -> float:  # instruction-weighted mean over windows
        if not instructions:
            return 0.0
        return sum(getter(r) * r.instructions for r in windows) / instructions

    def cw(getter) -> float:  # cycle-weighted mean over windows
        if not cycles:
            return 0.0
        return sum(getter(r) * r.cycles for r in windows) / cycles

    energy: dict[str, float] = {}
    cache_energy: dict[str, float] = {}
    area: dict[str, float] = {}
    lsq_stats: dict[str, int] = {}
    mshr: dict[str, int] = {}
    for r in windows:
        _merge_counts(energy, r.lsq_energy_pj)
        _merge_counts(cache_energy, r.cache_energy_pj)
        _merge_counts(area, r.area_um2_cycles)
        _merge_counts(lsq_stats, r.lsq_stats)
        _merge_counts(mshr, r.telemetry().get("mshr") or {})
    sampling: dict = {
        "period": plan.period,
        "warmup": plan.warmup,
        "measure": plan.measure,
        "ratio": plan.ratio,
        "windows": len(windows),
        "measured_instructions": instructions,
        "simulated_instructions": simulated,
        "source_uops_consumed": stream.consumed,
        # warm-traffic totals are kept out of the cache/TLB statistics
        # (detailed rates must reflect detailed accesses only) and are
        # identical across engines, so they are safe in the result
        "warm": engine.totals(),
    }
    return SimResult(
        instructions=instructions,
        cycles=cycles,
        lsq_name=windows[0].lsq_name if windows else "",
        lsq_energy_pj=energy,
        cache_energy_pj=cache_energy,
        area_um2_cycles=area,
        deadlock_flushes=sum(r.deadlock_flushes for r in windows),
        mispredict_rate=iw(lambda r: r.mispredict_rate),
        l1d_miss_rate=iw(lambda r: r.l1d_miss_rate),
        dtlb_miss_rate=iw(lambda r: r.dtlb_miss_rate),
        lsq_stats=lsq_stats,
        shared_occupancy_mean=cw(lambda r: r.shared_occupancy_mean),
        shared_occupancy_p99=max((r.shared_occupancy_p99 for r in windows), default=0),
        addr_buffer_busy_frac=cw(lambda r: r.addr_buffer_busy_frac),
        data_violations=sum(r.data_violations for r in windows),
        extra=build_extra(mshr=mshr, sampling=sampling),
    )


def run_sampled(
    pipe: Pipeline,
    trace: Iterable[UOp],
    plan: SamplePlan,
    max_measured: int | None = None,
    warm_engine: str = "vector",
) -> SimResult:
    """Drive ``pipe`` over the sampled windows of ``trace``.

    Each window runs as warm-up (statistics discarded, architectural
    state kept hot) followed by a measured burst; window results are
    aggregated into one :class:`SimResult` whose ``extra["sampling"]``
    records the plan, window count, coverage and warm-traffic totals.
    Every skipped uop is fed through the caches/TLB/predictor
    (functional warming; see the module docstring) by the
    ``warm_engine`` of choice (``"vector"``/``"scalar"``; bit-identical
    by contract, see the module docstring).  The detailed windows run
    under the pipeline's own cycle-skip setting (``pipe.event_skip``,
    on for every run; bit-identical by contract, enforced by
    ``tests/test_event_skip.py``, and therefore not part of any cache
    key).  Stops when the trace is exhausted or ``max_measured``
    instructions have been measured.
    """
    engine = make_warm_engine(pipe, warm_engine)
    stream = SampledStream(trace, plan, engine)
    pipe.attach_trace(stream)
    windows: list[SimResult] = []
    measured = 0
    entry_committed = pipe.committed
    while max_measured is None or measured < max_measured:
        want = plan.measure
        if max_measured is not None:
            want = min(want, max_measured - measured)
        before = pipe.committed
        if plan.warmup == 0:
            # pipe.run only resets statistics on a non-zero warmup; a
            # zero-warmup window must still start its counters fresh
            pipe.reset_stats()
        # one span per detailed window (warm gaps drain inside run() via
        # the stream); span() is a no-op unless observability is on, and
        # windows are thousands of instructions, so the disabled cost is
        # one enabled() check per window
        with _spans.span("sample.window", index=len(windows), engine=engine.name):
            r = pipe.run(want, warmup=plan.warmup)
        got = pipe.committed - before
        if r.instructions > 0:
            windows.append(r)
            measured += r.instructions
        if got < plan.warmup + want:  # trace exhausted mid-window
            break
    if not windows:
        raise ValueError(
            f"no complete sampling window: the source yielded "
            f"{stream.consumed} uops but plan {plan.period}/{plan.warmup}/"
            f"{plan.measure} needs more than {plan.warmup} simulated per "
            "window; use a longer trace or a smaller plan"
        )
    # records fetch took but never fetched were not simulated: they are
    # left out of the coverage counts (a next()-fed run never took them)
    stream.unread(pipe.read_ahead)
    # delta from entry: the same pipe may have committed instructions
    # before run_sampled was called, and those are not ours to report
    result = _merge(windows, plan, stream,
                    simulated=pipe.committed - entry_committed, engine=engine)
    phase_counts = getattr(trace, "phase_counts", None)
    if callable(phase_counts):
        # phase-aware sources (scenario streams): switching is driven by
        # *consumed* uops, so warm-up gaps advance phases exactly as the
        # detailed windows do -- record where the run ended up.  Mutating
        # the merged dict here also updates the telemetry envelope's
        # aliases (they share the dict object by design).
        result.extra["sampling"]["phases"] = {
            "consumed": phase_counts(),
            "switches": len(trace.switch_points()),
        }
    return result


def attach_error(sampled: SimResult, full: SimResult) -> float:
    """Record sampled-vs-full IPC error on the sampled result.

    Returns the relative error ``|sampled.ipc - full.ipc| / full.ipc``
    and stores it (with the full-replay IPC) under
    ``extra["sampling"]``.  A degenerate full run (zero IPC) admits no
    relative error and raises ``ValueError`` -- silently reporting a
    perfect sample against it would mask the degenerate baseline.
    """
    if not full.ipc:
        raise ValueError(
            "full-replay IPC is zero (degenerate baseline: "
            f"{full.instructions} instructions in {full.cycles} cycles); "
            "sampling error against it is undefined"
        )
    err = abs(sampled.ipc - full.ipc) / full.ipc
    sampled.extra.setdefault("sampling", {}).update(
        {"full_ipc": full.ipc, "ipc_error_vs_full": err}
    )
    return err

"""The three workloads: fig5-sweep, sampled-synth and serve-study.

Each is a closed loop driven by one caller in one process, through the
public entry points a user runs: ``figure5.compute``,
``SimService.run_many``, and the ``repro serve`` CLI with
``ServiceClient``.  Every input is pinned here: scale, warm-up and an
explicit ``CacheConfig`` go on every call, and ``run.py`` strips
``REPRO_*`` from the environment before ``repro`` is imported.

The in-process workloads are built from *units*: a fresh session and
one cold batch.  The untraced run repeats units (serve-study: rounds) a
number of times set by the run's seconds.  The traced run does its work
once untraced, then again under :mod:`layers`, and reports the
per-layer totals and the ratio of the two wall times.  Memo-hit batches
are timed over HTTP only (serve-study): in-process, a 52-spec memo hit
takes about 2 ms, too short to time steadily on a shared host.

The in-process workloads sample the host's speed
(:class:`common.HostSpeed`) between pieces of timed work, and their
timed metrics are scaled by the run's factor.  serve-study's are not:
its two processes exchanging requests, and its two workers running in
parallel, do not slow in step with one thread of the loop, and scaling
made its spreads wider.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from time import perf_counter

import layers
from common import (
    SETUP_REPEATS,
    HostSpeed,
    Workdir,
    canonical,
    digest,
    log,
    median,
    own_peak_rss_mb,
    percentile,
    time_setup_probe,
)

#: figure-sweep scale: the paper-figure default (instructions, warm-up)
FIG5_SCALE = (6000, 3000)
#: sampled plan (period, warm-up, measure): most of the stream is skipped
SAMPLE_PLAN = (100_000, 1000, 500)
#: measured instructions per sampled spec: two windows
SAMPLE_MEASURED = 1000
SAMPLE_WORKLOADS = ("swim", "mcf", "ammp")
#: reduced scale of the serve-study suites
SERVE_SCALE = (200, 100)
#: memo-hit batches per serve-study round (1 spec in 122 is fresh).  Many
#: hits per cold pair keep the p95 on hundreds of samples while the
#: served-result check, which re-simulates every fresh spec, stays short
SERVE_HITS_PER_ROUND = 120
#: host-speed samples: one per about a second of timed work, before
#: every third fig5 spec and every sampled spec
FIG5_SPECS_PER_SAMPLE = 3
SAMPLED_SPECS_PER_SAMPLE = 1
#: rounds in one traced serve-study unit
SERVE_TRACED_ROUNDS = 3
#: nominal seconds of one unit or round on a 2-vCPU x86-64 host with
#: Python 3.11.  A run of S seconds does S // nominal of them
#: (at least one): a fixed amount of work, not as much as fits, so counts,
#: memory and the service's retained state are the same on every run
FIG5_UNIT_S = 15.0
SAMPLED_UNIT_S = 6.0
SERVE_ROUND_S = 3.0


def _repeats(seconds: float, nominal: float) -> int:
    return max(1, int(seconds // nominal))


@dataclass
class Unit:
    """What one unit did: batch timings, specs and results, failures."""

    cold_s: list[float] = field(default_factory=list)
    hit_s: list[float] = field(default_factory=list)
    specs: int = 0  # specs returned by every batch
    sim_uops: int = 0  # uops simulated by the cold batches
    failed: int = 0
    results: list = field(default_factory=list)  # (spec, result), simulated
    stats: dict = field(default_factory=dict)  # service counters
    simulate_s: float = 0.0  # service job seconds
    wall_s: float = 0.0
    overhead_s: float = 0.0  # batch wall minus simulate time

    @property
    def batch_s(self) -> float:
        return sum(self.cold_s) + sum(self.hit_s)


def _suite_machines():
    from repro.experiments.runner import MACHINE_CONV128, MACHINE_SAMIE

    return (MACHINE_CONV128, MACHINE_SAMIE)


def _finish_unit(unit: Unit, service, t_unit: float, paused: float) -> None:
    unit.stats = service.stats.snapshot()
    unit.simulate_s = service.registry.get("repro_service_job_seconds").sum
    unit.wall_s = perf_counter() - t_unit - paused
    unit.overhead_s = unit.batch_s - unit.simulate_s


# -- fig5-sweep ----------------------------------------------------------------


class SeededSession:
    """Session proxy between an in-process workload and the real
    ``SimService``.

    It gives every spec the benchmark's seed: ``figure5.compute`` has no
    seed parameter, and the workload seed is an input the benchmark
    owns.  It also hands the specs to the service one batch each and
    samples the host's speed before every ``every``-th, so the
    calibration follows the run through it; the caller takes
    ``host.spent`` out of its timing.  The service runs a batch's specs
    one after another either way (``jobs=1``), so the simulations are
    the same.
    """

    def __init__(self, service, seed: int, host: HostSpeed, every: int) -> None:
        self.service = service
        self.seed = seed
        self.host = host
        self.every = every
        self.last: list = []

    def run_many(self, specs, jobs=None):
        specs = [replace(s, seed=self.seed) for s in specs]
        results = []
        for i, spec in enumerate(specs):
            if i % self.every == 0:
                self.host.sample()
            results += self.service.run_many([spec], jobs=jobs)
        self.last = list(zip(specs, results))
        return results


def fig5_unit(seed: int, work: Workdir, host: HostSpeed) -> Unit:
    from repro.core.config import ProcessorConfig
    from repro.experiments import figure5
    from repro.service.session import SimService
    from repro.service.store import CacheConfig

    n, w = FIG5_SCALE
    width = ProcessorConfig().commit_width
    unit = Unit()
    t_unit, spent = perf_counter(), host.spent
    service = SimService(cache=CacheConfig(backend="local", directory=work.fresh("store")))
    session = SeededSession(service, seed, host, FIG5_SPECS_PER_SAMPLE)
    gc.collect()  # each unit starts from the same heap, not the last one's garbage
    try:
        t0 = perf_counter()
        figure5.compute(instructions=n, warmup=w, jobs=1, session=session)
        unit.cold_s.append(perf_counter() - t0 - (host.spent - spent))
        unit.results = session.last
        unit.specs = len(session.last)
        for spec, r in unit.results:
            unit.sim_uops += r.instructions + spec.warmup
            if r.data_violations or not spec.instructions <= r.instructions < spec.instructions + width:
                unit.failed += 1
        _finish_unit(unit, service, t_unit, host.spent - spent)
    finally:
        service.teardown()
    return unit


def fig5_reference_check(unit: Unit) -> int:
    """Re-simulate one spec per LSQ kind on the ``repro.lsq.reference``
    models; returns how many differ from the sweep's result."""
    from repro.core.processor import build_processor
    from repro.lsq.reference import ReferenceConventionalLSQ, ReferenceSamieLSQ
    from repro.lsq.samie import SamieConfig
    from repro.workloads.registry import make_trace

    picks = {("mcf", "conv128"), ("ammp", "samie")}
    failed = 0
    for spec, result in unit.results:
        if (spec.workload, spec.machine_key) not in picks:
            continue
        kind, params = spec.lsq
        if kind == "conventional":
            lsq = ReferenceConventionalLSQ(capacity=dict(params).get("capacity", 128))
        else:
            lsq = ReferenceSamieLSQ(SamieConfig(**dict(params)))
        pipe = build_processor(lsq, spec.cfg)
        pipe.attach_trace(make_trace(spec.workload, spec.seed))
        ref = pipe.run(spec.instructions, warmup=spec.warmup)
        if canonical(ref) != canonical(result):
            log(f"reference model differs on {spec.workload}/{spec.machine_key}")
            failed += 1
    return failed


# -- sampled-synth -------------------------------------------------------------


def sampled_specs(seed: int, measured: int = SAMPLE_MEASURED):
    from repro.experiments.runner import SimSpec

    return [
        SimSpec.make(wl, m, instructions=measured, warmup=0, seed=seed,
                     sample=SAMPLE_PLAN)
        for wl in SAMPLE_WORKLOADS for m in _suite_machines()
    ]


def sampled_unit(seed: int, work: Workdir, host: HostSpeed) -> Unit:
    from repro.service.session import SimService
    from repro.service.store import CacheConfig

    windows = SAMPLE_MEASURED // SAMPLE_PLAN[2]
    unit = Unit()
    t_unit, spent = perf_counter(), host.spent
    specs = sampled_specs(seed)
    service = SimService(cache=CacheConfig(backend="off"))
    session = SeededSession(service, seed, host, SAMPLED_SPECS_PER_SAMPLE)
    gc.collect()  # each unit starts from the same heap, not the last one's garbage
    try:
        t0 = perf_counter()
        results = session.run_many(specs, jobs=1)
        unit.cold_s.append(perf_counter() - t0 - (host.spent - spent))
        unit.results = list(zip(specs, results))
        unit.specs = len(specs)
        for r in results:
            sampling = r.extra["sampling"]
            unit.sim_uops += sampling["source_uops_consumed"]
            if (r.data_violations or sampling["windows"] != windows
                    or r.instructions < SAMPLE_MEASURED):
                unit.failed += 1
        _finish_unit(unit, service, t_unit, host.spent - spent)
    finally:
        service.teardown()
    return unit


def sampled_scalar_check(seed: int) -> int:
    """One short spec on the scalar warm engine must equal the vector run."""
    from repro.experiments.runner import run_spec

    spec = sampled_specs(seed, measured=SAMPLE_PLAN[2])[0]
    vector = run_spec(spec)
    scalar = run_spec(replace(spec, warm_engine="scalar"))
    if canonical(vector) != canonical(scalar):
        log(f"scalar warm engine differs on {spec.workload}/{spec.machine_key}")
        return 1
    return 0


# -- serve-study ---------------------------------------------------------------


def serve_suite(seed: int):
    from repro.experiments.runner import SimSpec
    from repro.workloads.spec2000 import SPEC2000_PROFILES

    n, w = SERVE_SCALE
    return [SimSpec.make(wl, m, n, w, seed=seed)
            for wl in sorted(SPEC2000_PROFILES) for m in _suite_machines()]


class Study:
    """One client replaying a figure study against a service.

    Each round submits a fresh 52-spec suite twice back to back (so the
    second joins the first in flight), then re-requests suites seen so
    far as memo-hit batches; every fourth of those repeats half a suite
    twice, so it carries in-batch duplicates.
    """

    def __init__(self, client, seed: int) -> None:
        self.client = client
        self.seed = seed
        self.unit = Unit()
        self.pairs: list[tuple[float, str]] = []  # (pair wall, first batch id)
        self.served: dict[str, tuple] = {}  # cache id -> (spec, result)
        self._seen: list = []
        self._round = 0

    def _record(self, specs, results) -> None:
        for spec, result in zip(specs, results):
            cid = spec.cache_id
            first = self.served.setdefault(cid, (spec, result))[1]
            if first != result:
                log(f"service returned two results for {spec.workload}/{spec.machine_key}")
                self.unit.failed += 1

    def _batch(self, fn):
        try:
            return fn()
        except Exception as exc:  # an HTTP error or timeout fails the batch
            log(f"batch failed: {type(exc).__name__}: {exc}")
            self.unit.failed += 1
            return None

    def round(self) -> None:
        client, unit = self.client, self.unit
        specs = serve_suite(self.seed * 1000 + self._round)
        self._round += 1

        def cold_pair():
            t0 = perf_counter()
            b1 = client.submit(specs)
            t1 = perf_counter()
            b2 = client.submit(specs)
            r1 = client.results(b1["batch"])
            t2 = perf_counter()
            r2 = client.results(b2["batch"])
            t3 = perf_counter()
            return b1["batch"], (t2 - t0, t3 - t1, t3 - t0), r1, r2

        out = self._batch(cold_pair)
        if out is not None:
            batch_id, (rt1, rt2, wall), r1, r2 = out
            unit.cold_s += [rt1, rt2]
            self.pairs.append((wall, batch_id))
            unit.specs += len(r1) + len(r2)
            fresh = len(self.served)
            self._record(specs, r1)
            self._record(specs, r2)
            for spec, r in zip(specs, r1):
                unit.sim_uops += r.instructions + spec.warmup
            unit.results += list(self.served.values())[fresh:]
            self._seen.append(specs)
        for _ in range(SERVE_HITS_PER_ROUND):
            if not self._seen:
                break
            i = len(unit.hit_s)
            suite = self._seen[i % len(self._seen)]
            batch = suite[:26] * 2 if i % 4 == 3 else suite

            def hit():
                t0 = perf_counter()
                results = client.run_many(batch)
                return perf_counter() - t0, results

            out = self._batch(hit)
            if out is not None:
                rt, results = out
                unit.hit_s.append(rt)
                unit.specs += len(results)
                self._record(batch, results)

    def finish(self) -> None:
        """Check the service's own counters against what was sent."""
        stats = self.client.stats()["stats"]
        self.unit.stats = stats
        fresh = len(self.served)
        if stats["simulated"] != fresh or stats["failed"] or stats["rejected"]:
            log(f"service stats disagree: simulated={stats['simulated']} "
                f"(want {fresh}) failed={stats['failed']} rejected={stats['rejected']}")
            self.unit.failed += 1

    def verify(self) -> int:
        """Every served result must equal the in-process ``run_spec``."""
        from repro.experiments.runner import run_spec

        failed = 0
        for spec, result in self.served.values():
            if canonical(run_spec(spec)) != canonical(result):
                log(f"served result differs from run_spec: {spec.workload}/{spec.machine_key}")
                failed += 1
        return failed


def serve_inprocess_unit(seed: int, work: Workdir, rounds: int,
                         tracer: layers.Tracer | None = None) -> Study:
    """The study against an in-process ``SimService`` + HTTP server (the
    traced run hosts the server here so its functions can be wrapped)."""
    from repro.service.client import ServiceClient
    from repro.service.httpapi import ServiceHTTPServer
    from repro.service.session import SimService
    from repro.service.store import CacheConfig

    t_unit = perf_counter()
    service = SimService(cache=CacheConfig(backend="local", directory=work.fresh("store")),
                         jobs=2, backend="process")
    service.standup()
    server = ServiceHTTPServer(service, "127.0.0.1", 0)
    thread = server.start_background()
    try:
        study = Study(ServiceClient(server.url, timeout=120.0), seed)
        for _ in range(rounds):
            study.round()
        study.finish()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        service.teardown()
    unit = study.unit
    unit.wall_s = perf_counter() - t_unit
    if tracer is not None:
        # a pair's simulate time: first dispatch to last finish of the
        # jobs its first batch admitted (the shards run in parallel)
        spans = tracer.batch_spans
        unit.simulate_s = sum(spans[b][1] - spans[b][0] for _, b in study.pairs if b in spans)
        unit.overhead_s = (sum(unit.hit_s) + sum(wall for wall, _ in study.pairs)
                           - unit.simulate_s)
    return study


# -- per-layer metrics ---------------------------------------------------------

LAYERS = ("workloads", "pipeline", "lsq", "mem", "branch", "trace", "service",
          "experiments")


def layer_metrics(tracer: layers.Tracer, unit: Unit, untraced_wall: float) -> dict:
    """The traced run's per-layer metrics (see BENCHMARK.json)."""
    b = tracer.buckets()
    c = tracer.counts()

    def self_s(bucket: str) -> float:
        return b.get(bucket, (0.0, 0.0, 0))[0]

    def calls(bucket: str) -> int:
        return b.get(bucket, (0.0, 0.0, 0))[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    layer_self = {name: 0.0 for name in LAYERS}
    for bucket, (s, _, _) in b.items():
        name = bucket.split(".", 1)[0]
        if name in layer_self:
            layer_self[name] += s
    total = sum(layer_self.values())
    stages = {bucket.split(".", 1)[1]: self_s(bucket) for bucket in layers.STAGES.values()}
    uops = tracer.functions().get(("workloads", "TraceBuilder.generate"), (0, 0, 0))[2]
    committed = c.get("pipeline.committed", 0)
    results = [r for _, r in unit.results]
    placed = sum(r.lsq_stats.get("placed", 0) for r in results)
    place_failed = sum(r.lsq_stats.get("placement_failures", 0) for r in results)
    st = unit.stats
    submitted = st.get("submitted", 0)
    m = {
        "workloads.self_s": layer_self["workloads"],
        "workloads.uops": uops,
        "workloads.ns_per_uop": ratio(layer_self["workloads"], uops) * 1e9,
        "pipeline.self_s": layer_self["pipeline"],
        "pipeline.ns_per_uop": ratio(layer_self["pipeline"], committed) * 1e9,
        "pipeline.cycles": c.get("pipeline.cycles", 0),
        "pipeline.cycles_skipped": c.get("pipeline.cycles_skipped", 0),
        **{f"pipeline.{stage}_s": s for stage, s in stages.items()},
        "pipeline.step_other_s": layer_self["pipeline"] - sum(stages.values()),
        "lsq.self_s": layer_self["lsq"],
        "lsq.calls": calls("lsq"),
        "lsq.ns_per_call": ratio(layer_self["lsq"], calls("lsq")) * 1e9,
        "lsq.placement_failure_ratio": ratio(place_failed, placed + place_failed),
        "lsq.deadlock_flushes": sum(r.deadlock_flushes for r in results),
        "mem.self_s": layer_self["mem"],
        "mem.calls": calls("mem"),
        "mem.blocked_poll_ratio": ratio(c.get("mem.blocked", 0), c.get("mem.blocked_polls", 0)),
        "mem.l1d_miss_rate": ratio(c.get("mem.l1d_misses", 0), c.get("mem.daccess", 0)),
        "branch.self_s": layer_self["branch"],
        "branch.calls": calls("branch"),
        "trace.self_s": layer_self["trace"],
        "trace.warm_batch_s": self_s("trace.warm_batch"),
        "trace.to_batch_s": self_s("trace.to_batch"),
        "trace.skipped_uops": c.get("trace.skipped_uops", 0),
        "trace.windows": sum((r.extra or {}).get("sampling", {}).get("windows", 0)
                             for r in results),
        "service.self_s": layer_self["service"],
        "service.wire_decode_s": self_s("service.wire_decode"),
        "service.admission_s": self_s("service.admission"),
        "service.result_encode_s": self_s("service.result_encode"),
        "service.dispatch_s": self_s("service.dispatch"),
        "service.store_get_s": self_s("service.store_get"),
        "service.store_put_s": self_s("service.store_put"),
        "service.store_get.calls": calls("service.store_get"),
        "service.store_put.calls": calls("service.store_put"),
        "service.simulate_s": unit.simulate_s,
        "service.client_encode_s": self_s("service.client_encode"),
        "service.client_decode_s": self_s("service.client_decode"),
        "service.http_s": self_s("service.http"),
        "service.memo_hits": st.get("memo_hits", 0),
        "service.store_hits": st.get("store_hits", 0),
        "service.dedup": st.get("dedup_inflight", 0) + st.get("dedup_batch", 0),
        "service.simulated": st.get("simulated", 0),
        "service.failed": st.get("failed", 0),
        "service.rejected": st.get("rejected", 0),
        "service.hit_ratio": ratio(submitted - st.get("simulated", 0), submitted),
        "service.overhead_ms_per_spec": ratio(unit.overhead_s, unit.specs) * 1e3,
        "experiments.self_s": layer_self["experiments"],
        "experiments.spec_build_s": self_s("experiments.spec_build"),
        **{f"{name}.share": ratio(s, total) for name, s in layer_self.items()},
        "tracing.overhead_ratio": ratio(unit.wall_s, untraced_wall) - 1.0,
    }
    top = sorted(tracer.functions().items(), key=lambda kv: -kv[1][0])[:25]
    for (bucket, fn), (s, incl, n) in top:
        log(f"  {bucket:<22} {fn:<36} self {s:9.4f}s  incl {incl:9.4f}s  calls {n}")
    return {name: (value, _unit(name)) for name, value in m.items()}


def _unit(name: str) -> str:
    if name.endswith("_ms_per_spec"):
        return "ms"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "rate", "share")):
        return "ratio"
    return "count"


# -- the workloads -------------------------------------------------------------


def _traced(unit_fn):
    """Run ``unit_fn()`` untraced, then traced; ``(traced unit, tracer,
    untraced unit)``."""
    reference = unit_fn()
    tracer = layers.Tracer()
    restore = layers.install(tracer, simulator=True)
    try:
        unit = unit_fn()
    finally:
        restore()
    return unit, tracer, reference


def _outputs(unit: Unit) -> str:
    """Digest of a unit's simulated outputs."""
    return digest(r for _, r in unit.results)


def _print_digest(name: str, seed: int, unit: Unit) -> None:
    print(f"perfbench: {name} seed={seed} outputs sha256={_outputs(unit)}")


#: how a metric of each unit scales with the host-speed factor
_SCALE = {"s": -1, "ms": -1, "uops/s": 1, "specs/s": 1, "MB": 0}


def _metrics(setup: list[float], cold: list[float], hits: list[float],
             specs: int, batch_s: float, sim_uops: int, sim_s: float,
             peak_rss_mb: float, host: HostSpeed | None) -> dict:
    """The end-to-end metrics (see BENCHMARK.json and README.md).

    With a ``host``, times are divided by the run's host-speed factor
    and rates are multiplied by it, so both read as on the reference
    host; the unscaled values go to standard error."""
    raw = {
        "setup_s": (median(setup), "s"),
        "sim_uops_per_s": (sim_uops / sim_s, "uops/s"),
        "specs_per_s": (specs / batch_s, "specs/s"),
        "batch_p50_ms": (percentile(hits, 50) * 1e3, "ms"),
        "batch_p95_ms": (percentile(hits, 95) * 1e3, "ms"),
        "cold_batch_s": (median(cold), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if host is None:
        return raw
    factor = host.factor()
    log(f"host-speed factor {factor:.4f} from {len(host.samples)} samples; unscaled: "
        + ", ".join(f"{name} {value:.6g}" for name, (value, _) in raw.items()))
    return {name: (value * factor ** _SCALE[unit], unit) for name, (value, unit) in raw.items()}


def _in_process(unit_fn, unit_s: float, checks, seed: int, seconds: float,
                trace: bool, work: Workdir, name: str):
    """Shared driver of fig5-sweep and sampled-synth, where every batch
    simulates: the batch percentiles are over the cold batches."""
    if trace:
        unit, tracer, reference = _traced(lambda: unit_fn(seed, work, HostSpeed()))
        failed = unit.failed + checks(unit)
        if _outputs(unit) != _outputs(reference):
            failed += unit.specs
        _print_digest(name, seed, unit)
        return unit.specs, failed, layer_metrics(tracer, unit, reference.wall_s)
    host = HostSpeed()
    setup = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        setup.append(time_setup_probe(name, work))
    units = [unit_fn(seed, work, host) for _ in range(_repeats(seconds, unit_s))]
    failed = sum(u.failed for u in units) + checks(units[0])
    failed += sum(u.specs for u in units[1:] if _outputs(u) != _outputs(units[0]))
    _print_digest(name, seed, units[0])
    cold = [t for u in units for t in u.cold_s]
    specs = sum(u.specs for u in units)
    return specs, failed, _metrics(
        setup, cold, cold, specs, sum(cold),
        sum(u.sim_uops for u in units), sum(cold), own_peak_rss_mb(), host)


def fig5_sweep(seed: int, seconds: float, trace: bool, work: Workdir):
    return _in_process(fig5_unit, FIG5_UNIT_S, fig5_reference_check, seed,
                       seconds, trace, work, "fig5-sweep")


def sampled_synth(seed: int, seconds: float, trace: bool, work: Workdir):
    return _in_process(sampled_unit, SAMPLED_UNIT_S,
                       lambda unit: sampled_scalar_check(seed),
                       seed, seconds, trace, work, "sampled-synth")


def serve_study(seed: int, seconds: float, trace: bool, work: Workdir):
    from server import ServeProcess

    if trace:
        reference = serve_inprocess_unit(seed, work, SERVE_TRACED_ROUNDS)
        tracer = layers.Tracer()
        restore = layers.install(tracer, simulator=False)
        try:
            study = serve_inprocess_unit(seed, work, SERVE_TRACED_ROUNDS, tracer)
        finally:
            restore()
        unit = study.unit
        failed = unit.failed + reference.unit.failed + study.verify()
        if _outputs(unit) != _outputs(reference.unit):
            failed += len(unit.results)
        _print_digest("serve-study", seed, unit)
        attempted = len(unit.cold_s) + len(unit.hit_s)
        return attempted, failed, layer_metrics(tracer, unit, reference.unit.wall_s)

    setup = []
    survivors = 0
    server = None
    try:
        # each spawn is timed to /v1/health; the last one serves the study
        for i in range(SETUP_REPEATS):
            server = ServeProcess(work.fresh("serve"))
            setup.append(server.wait_ready())
            if i < SETUP_REPEATS - 1:
                survivors += server.stop()
                server = None
        study = Study(server.client, seed)
        for _ in range(_repeats(seconds, SERVE_ROUND_S)):
            study.round()
        study.finish()
        peak = own_peak_rss_mb() + server.peak_rss_mb()
    finally:
        if server is not None:
            survivors += server.stop()
    unit = study.unit
    if survivors:
        log(f"{survivors} server or worker processes outlived their server")
    failed = unit.failed + survivors + study.verify()
    _print_digest("serve-study", seed, unit)
    # a cold pair's two batches overlap: its time is the pair's wall span
    pair_wall = sum(wall for wall, _ in study.pairs)
    attempted = len(unit.cold_s) + len(unit.hit_s)
    return attempted, failed, _metrics(
        setup, unit.cold_s, unit.hit_s, unit.specs,
        pair_wall + sum(unit.hit_s), unit.sim_uops, pair_wall, peak, None)


WORKLOADS = {
    "fig5-sweep": fig5_sweep,
    "sampled-synth": sampled_synth,
    "serve-study": serve_study,
}

"""``SimService``: the long-running simulation session over the sweep engine.

One :class:`SimService` owns the three things the old free-function runner
kept in module globals: the in-process memo, the result store, and the
worker pool.  Its lifecycle is explicit::

    standup  -> run       (pools created, submissions accepted)
    any      -> teardown  (pools drained and shut down; the session is
                           finished)

Work enters as batches of :class:`~repro.experiments.runner.SimSpec`
documents via :meth:`SimService.submit`, which resolves every spec
through the admission pipeline:

1. **memo** -- an identical spec already finished this session;
2. **in-flight dedup** -- an identical spec is queued or running, so the
   new submission *joins* the existing :class:`Job` (a thundering herd of
   N identical specs costs exactly one simulation);
3. **store** -- the content-addressed :class:`~repro.service.store
   .ResultStore` already holds the result (warm restarts serve entirely
   from here);
4. otherwise a new job is queued, subject to **admission control**
   (``max_pending`` bounds the queue; over-limit batches are refused
   whole with :class:`AdmissionError` -- HTTP maps it to 429).

Execution is sharded: a job's shard is chosen from its content address,
so identical keys always land on the same single-worker executor and a
shard's queue serializes them.  Shards are multi-process by default
(``backend="process"``), multi-thread for IO-bound serving and tests
(``"thread"``), or inline (``"inline"``).  A service stood up with
``jobs=N`` keeps standing shards and schedules at submit time (the HTTP
server mode); a service with ``jobs=None`` defers execution to
:meth:`collect`, which spins ephemeral shards per call -- exactly the old
``run_many(jobs=N)`` behaviour, bit-identical because workers are pure
functions of their spec.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.pipeline import SimResult
from repro.obs import spans as _spans
from repro.obs.metrics import DURATION_BUCKETS, MetricsRegistry
from repro.service.store import (
    CacheConfig,
    InstrumentedStore,
    ResultStore,
    build_store,
)

import repro.obs as _obs


def _runner():
    """The runner module, resolved per call.

    Late binding keeps the import graph acyclic (the runner's facades
    import this module) and lets tests monkeypatch ``runner.run_spec``
    and see the service call the patched function.
    """
    from repro.experiments import runner

    return runner


class ServiceError(RuntimeError):
    """Base class for session-level failures."""


class PhaseError(ServiceError):
    """An operation was attempted in a lifecycle phase that forbids it."""


class AdmissionError(ServiceError):
    """A batch was refused by admission control (queue full)."""


@dataclass
class Job:
    """One unit of simulation work, shared by every submission of its key."""

    spec: object  # SimSpec (typed loosely to avoid the import cycle)
    key: tuple
    cache_id: str
    state: str = "queued"  # queued | running | done | failed
    source: str | None = None  # memo | store | simulated
    result: SimResult | None = None
    error: str | None = None
    exception: BaseException | None = None
    batch_id: str | None = None  #: batch that first admitted this job
    _event: threading.Event = field(default_factory=threading.Event, repr=False)
    _claimed: bool = field(default=False, repr=False)
    _t0: float | None = field(default=None, repr=False)  # execution start

    def done(self) -> bool:
        return self.state in ("done", "failed")

    def wait(self, timeout: float | None = None) -> bool:
        return self._event.wait(timeout)

    def describe(self) -> dict:
        return {
            "id": self.cache_id,
            "workload": self.spec.workload,
            "machine": self.spec.machine_key,
            "state": self.state,
            "source": self.source,
            "error": self.error,
        }


@dataclass
class Batch:
    """An ordered submission; ``jobs`` may repeat one :class:`Job` object
    when the batch itself contained duplicate specs."""

    batch_id: str
    jobs: list[Job]

    def done(self) -> bool:
        return all(j.done() for j in self.jobs)

    def wait(self, timeout: float | None = None) -> bool:
        deadline = None if timeout is None else (_monotonic() + timeout)
        for job in self.jobs:
            remaining = None if deadline is None else max(0.0, deadline - _monotonic())
            if not job.wait(remaining):
                return False
        return True

    def results(self) -> list[SimResult]:
        return [j.result for j in self.jobs]

    def describe(self) -> dict:
        return {
            "batch": self.batch_id,
            "done": self.done(),
            "jobs": [j.describe() for j in self.jobs],
        }


def _monotonic() -> float:
    import time

    return time.monotonic()


class ServiceStats:
    """Monotonic admission/dedup counters (the HTTP ``/v1/stats`` body).

    Each field is a :class:`~repro.obs.metrics.Counter` on the service's
    :class:`~repro.obs.metrics.MetricsRegistry` -- the same objects
    ``/v1/metrics`` renders, so the JSON stats endpoint and the
    Prometheus endpoint are *defined once* and cannot drift.  Write
    sites call ``stats.<field>.inc(n)``; :meth:`snapshot` is the one
    read API.
    """

    #: field -> (metric name, help); declaration order = snapshot order
    FIELDS = {
        "submitted": ("repro_service_submitted_total",
                      "Specs received by submit()"),
        "batches": ("repro_service_batches_total", "Batches admitted"),
        "memo_hits": ("repro_service_memo_hits_total",
                      "Specs served from this session's memo"),
        "store_hits": ("repro_service_store_hits_total",
                       "Specs served from the result store"),
        "dedup_inflight": ("repro_service_dedup_inflight_total",
                           "Specs that joined an identical in-flight job"),
        "dedup_batch": ("repro_service_dedup_batch_total",
                        "Specs duplicating an earlier spec in their batch"),
        "simulated": ("repro_service_simulated_total",
                      "Jobs actually executed"),
        "failed": ("repro_service_failed_total", "Jobs that raised"),
        "rejected": ("repro_service_rejected_total",
                     "Specs refused by admission control"),
    }

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        for fname, (mname, mhelp) in self.FIELDS.items():
            setattr(self, fname, self.registry.counter(mname, mhelp))

    def snapshot(self) -> dict:
        d = {fname: int(getattr(self, fname).value) for fname in self.FIELDS}
        # one headline number for "how many submissions cost nothing"
        d["deduplicated"] = d["dedup_inflight"] + d["dedup_batch"]
        return d


class SimService:
    """A simulation session: store + memo + sharded worker pool.

    ``store``/``cache`` configure the result store (pass at most one;
    the default is ``CacheConfig()``, the local store under
    ``~/.cache/samie-repro``).  ``jobs=N`` keeps N standing worker
    shards from :meth:`standup` until :meth:`teardown`; ``jobs=None``
    (the library default) defers parallelism to each
    :meth:`collect`/:meth:`run_many` call.  ``backend`` picks the shard
    executor: ``"process"`` (real parallelism, the default),
    ``"thread"`` or ``"inline"``.
    ``max_pending`` bounds the queued+running job count (admission
    control); ``memo`` lets a caller share an existing memo dict (the
    runner's default session passes its module-level memo).
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        cache: CacheConfig | None = None,
        jobs: int | None = None,
        backend: str = "process",
        max_pending: int | None = None,
        memo: dict | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if store is not None and cache is not None:
            raise ValueError("pass either a store or a CacheConfig, not both")
        if backend not in ("process", "thread", "inline"):
            raise ValueError(f"unknown worker backend {backend!r}")
        if store is None:
            store = build_store(cache if cache is not None else CacheConfig())
        self.jobs = jobs
        self.backend = backend
        self.max_pending = max_pending
        self.phase = "created"
        # per-service registry (not the process default): parallel test
        # services must not collide on metric names, and /v1/metrics
        # should describe exactly one service
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = ServiceStats(self.registry)
        # every store access flows through the instrumented proxy so
        # /v1/metrics sees hit/miss counts and latencies; re-wrapping a
        # handed-down proxy would double-count, so unwrap first
        if isinstance(store, InstrumentedStore):
            store = store._inner
        self.store = InstrumentedStore(store, self.registry)
        self._created_monotonic = _monotonic()
        self.registry.gauge(
            "repro_service_pending_jobs",
            "Queued + running jobs (the admission-control gauge)",
            fn=self.pending,
        )
        self.registry.gauge(
            "repro_service_uptime_seconds",
            "Seconds since the service object was created",
            fn=lambda: _monotonic() - self._created_monotonic,
        )
        self._job_seconds = self.registry.histogram(
            "repro_service_job_seconds",
            "Wall-clock seconds per executed job (simulated and failed)",
            buckets=DURATION_BUCKETS,
        )
        self._memo: dict[tuple, SimResult] = memo if memo is not None else {}
        self._inflight: dict[tuple, Job] = {}
        self._jobs_by_id: dict[str, Job] = {}
        self._batches: dict[str, Batch] = {}
        self._batch_seq = itertools.count(1)
        self._lock = threading.RLock()
        self._shards: list[Executor] | None = None

    # -- lifecycle -----------------------------------------------------------

    def standup(self) -> "SimService":
        """created -> run: allocate standing shards when ``jobs`` is set."""
        with self._lock:
            if self.phase == "run":
                return self
            if self.phase != "created":
                raise PhaseError(f"cannot stand up from phase {self.phase!r}")
            with _spans.span("service.standup", backend=self.backend):
                if self.jobs is not None and self.backend != "inline":
                    n = _runner().resolve_jobs(self.jobs)
                    self._shards = [self._make_executor() for _ in range(n)]
                self.phase = "run"
        return self

    def teardown(self) -> None:
        """Drain and release the worker shards; the session is finished."""
        with self._lock:
            if self.phase == "teardown":
                return
            shards, self._shards = self._shards, None
            self.phase = "teardown"
        with _spans.span("service.teardown", shards=len(shards or ())):
            for ex in shards or ():
                ex.shutdown(wait=True)
        with self._lock:
            # anything still queued after the pools drained can never run
            for job in list(self._inflight.values()):
                if not job.done():
                    self._fail(job, ServiceError("service torn down"))

    def __enter__(self) -> "SimService":
        return self.standup()

    def __exit__(self, *exc) -> None:
        self.teardown()

    def _make_executor(self) -> Executor:
        # one worker per shard: a shard's queue serializes identical keys
        if self.backend == "thread":
            return ThreadPoolExecutor(max_workers=1)
        return ProcessPoolExecutor(max_workers=1)

    # -- admission -----------------------------------------------------------

    def pending(self) -> int:
        """Queued + running job count (the admission-control gauge)."""
        with self._lock:
            return sum(1 for j in self._inflight.values() if not j.done())

    def submit(self, specs) -> Batch:
        """Admit a batch of specs; returns immediately with its jobs.

        Every spec resolves to exactly one :class:`Job` (memo hit, store
        hit, join of an in-flight duplicate, or a newly queued job).  On
        a service with standing shards the new jobs are scheduled here;
        otherwise they run at :meth:`collect` time.
        """
        runner = _runner()
        specs = list(specs)
        with self._lock:
            if self.phase == "created":
                self.standup()
            if self.phase == "teardown":
                raise PhaseError("service is torn down")
        # validate before touching keys: key construction stats trace
        # files, and a missing workload should surface as the documented
        # error (UnknownWorkloadError: both ValueError and KeyError)
        # before any work is admitted
        from repro.workloads.registry import UnknownWorkloadError

        for spec in specs:
            if not runner.has_workload(spec.workload):
                raise UnknownWorkloadError(
                    f"unknown workload {spec.workload!r}"
                )
        keys = [spec.key for spec in specs]
        seen: dict[tuple, object] = {}
        for spec, key in zip(specs, keys):
            # the key's machine_key stands in for the LSQ geometry; catch
            # a batch that maps one key to two different machines before
            # any result could be served to the wrong spec
            prior = seen.setdefault(key, spec)
            if prior.lsq != spec.lsq:
                raise ValueError(
                    f"machine_key {spec.machine_key!r} names two different LSQ "
                    f"geometries ({prior.lsq} vs {spec.lsq}); machine keys must "
                    "uniquely identify the machine"
                )
        with self._lock:
            for key, spec in seen.items():
                live = self._inflight.get(key)
                if live is not None and live.spec.lsq != spec.lsq:
                    raise ValueError(
                        f"machine_key {spec.machine_key!r} names two different LSQ "
                        f"geometries ({live.spec.lsq} vs {spec.lsq}); machine keys "
                        "must uniquely identify the machine"
                    )
            batch_id = f"b{next(self._batch_seq)}"
            with _spans.span("service.admission", batch=batch_id,
                             specs=len(specs)):
                jobs = self._admit_locked(specs, keys, batch_id)
            batch = Batch(batch_id=batch_id, jobs=jobs)
            self._batches[batch.batch_id] = batch
            self.stats.batches.inc()
        return batch

    def _admit_locked(self, specs, keys, batch_id: str | None = None) -> list[Job]:
        stats = self.stats
        stats.submitted.inc(len(specs))
        # resolution pass: classify every spec WITHOUT mutating any state,
        # so an admission refusal below rejects the batch atomically
        first_kind: dict[tuple, str] = {}
        store_hits: dict[tuple, SimResult] = {}
        resolution: list[str] = []  # per-spec kind; "dup" = earlier in batch
        with _spans.span("service.lookup", batch=batch_id):
            for key in keys:
                if key in first_kind:
                    resolution.append("dup")
                    continue
                if key in self._memo:
                    kind = "memo"
                elif key in self._inflight:
                    kind = "inflight"
                else:
                    hit = self.store.get(key)
                    if hit is not None:
                        kind = "store"
                        store_hits[key] = hit
                    else:
                        kind = "new"
                first_kind[key] = kind
                resolution.append(kind)
        fresh = [k for k, kind in first_kind.items() if kind == "new"]
        if self.max_pending is not None:
            live = sum(1 for j in self._inflight.values() if not j.done())
            if live + len(fresh) > self.max_pending:
                stats.rejected.inc(len(specs))
                raise AdmissionError(
                    f"admission refused: {len(fresh)} new jobs would exceed "
                    f"max_pending={self.max_pending} ({live} in flight)"
                )
        # materialize pass: one Job per unique key, counters per spec
        jobs: list[Job] = []
        new_jobs: list[Job] = []
        batch_jobs: dict[tuple, Job] = {}
        for spec, key, kind in zip(specs, keys, resolution):
            if kind == "dup":
                job = batch_jobs[key]
                stats.dedup_batch.inc()
            elif kind == "memo":
                job = self._hit_job(spec, key, self._memo[key], "memo")
                stats.memo_hits.inc()
            elif kind == "store":
                self._memo[key] = store_hits[key]
                job = self._hit_job(spec, key, store_hits[key], "store")
                stats.store_hits.inc()
            elif kind == "inflight":
                job = self._inflight[key]
                stats.dedup_inflight.inc()
            else:
                job = Job(spec=spec, key=key, cache_id=spec.cache_id,
                          batch_id=batch_id)
                self._inflight[key] = job
                new_jobs.append(job)
            batch_jobs.setdefault(key, job)
            self._jobs_by_id[job.cache_id] = job
            jobs.append(job)
        if self._shards is not None:
            for job in new_jobs:
                self._schedule_locked(job)
        return jobs

    def _hit_job(self, spec, key, result: SimResult, source: str) -> Job:
        job = Job(spec=spec, key=key, cache_id=spec.cache_id,
                  state="done", source=source, result=result)
        job._event.set()
        return job

    # -- execution -----------------------------------------------------------

    def _worker_ctx(self, job: Job, shard_idx: int) -> dict | None:
        """Span context to ship into a pool worker, or None when obs is off.

        A non-None context is also the worker's opt-in signal: the traced
        worker body re-enters it and hands its spans back *beside* the
        result (never inside it -- results stay bit-identical).
        """
        if not _obs.enabled():
            return None
        return {"run": job.cache_id[:12], "batch": job.batch_id,
                "shard": shard_idx}

    def _start(self, job: Job) -> None:
        job.state = "running"
        job._t0 = _monotonic()
        self.stats.simulated.inc()

    def _dispatch(self, job: Job, shards: list[Executor]):
        """Start ``job`` on its content-addressed shard; returns the future.

        The one submit path for standing and ephemeral shards alike.  The
        worker bodies look ``run_spec`` up at call time, so thread shards
        see a monkeypatched ``runner.run_spec`` too.
        """
        self._start(job)
        shard_idx = int(job.cache_id[:8], 16) % len(shards)
        with _spans.span("service.dispatch", run=job.cache_id[:12],
                         shard=shard_idx):
            ctx = self._worker_ctx(job, shard_idx)
            runner = _runner()
            if ctx is not None:
                return shards[shard_idx].submit(runner._pool_worker_traced, job.spec, ctx)
            return shards[shard_idx].submit(runner._pool_worker, job.spec)

    def _schedule_locked(self, job: Job) -> None:
        job._claimed = True
        future = self._dispatch(job, self._shards)
        future.add_done_callback(lambda f, job=job: self._on_future(job, f))

    @staticmethod
    def _unpack_worker(out):
        """Accept both worker shapes: SimResult, or (SimResult, spans)."""
        if isinstance(out, tuple):
            result, wspans = out
            for s in wspans:
                _spans.SPANS.add(s)
            return result
        return out

    def _on_future(self, job: Job, future) -> None:
        exc = future.exception()
        if exc is not None:
            with self._lock:
                self._fail(job, exc)
        else:
            self._finish(job, self._unpack_worker(future.result()))

    def _observe_job(self, job: Job) -> None:
        if job._t0 is not None:
            self._job_seconds.observe(_monotonic() - job._t0)
            job._t0 = None

    def _finish(self, job: Job, result: SimResult) -> None:
        with self._lock:
            job.result = result
            job.state = "done"
            job.source = job.source or "simulated"
            self._memo[job.key] = result
            self._inflight.pop(job.key, None)
            self._observe_job(job)
        self.store.put(job.key, result)
        job._event.set()

    def _fail(self, job: Job, exc: BaseException) -> None:
        job.exception = exc
        job.error = f"{type(exc).__name__}: {exc}"
        job.state = "failed"
        self.stats.failed.inc()
        self._inflight.pop(job.key, None)  # a later submit may retry
        self._observe_job(job)
        job._event.set()

    def _run_inline(self, job: Job) -> None:
        self._start(job)
        try:
            with _spans.span("job.simulate", spec=job.cache_id[:12],
                             workload=job.spec.workload):
                result = _runner().run_spec(job.spec)
        except BaseException as exc:
            with self._lock:
                self._fail(job, exc)
            raise
        self._finish(job, result)

    def collect(self, batch: Batch, jobs: int | None = None) -> list[SimResult]:
        """Complete every job of a batch; results in submission order.

        Unclaimed queued jobs are executed here: inline when the
        effective worker count is 1 (bit-identical serial path, and the
        path tests exercise with a monkeypatched ``run_spec``), otherwise
        over ephemeral single-worker shards keyed by content address.
        Jobs claimed by standing shards (or a concurrent collect) are
        simply awaited.  The first failed job re-raises its exception.
        """
        runner = _runner()
        with self._lock:
            mine = []
            for job in batch.jobs:
                if job.state == "queued" and not job._claimed and job not in mine:
                    job._claimed = True
                    mine.append(job)
        n = runner.resolve_jobs(jobs if jobs is not None else (self.jobs or 1))
        if self.backend == "inline" or n <= 1 or len(mine) <= 1:
            for i, job in enumerate(mine):
                try:
                    self._run_inline(job)
                except BaseException:
                    with self._lock:
                        # release the rest so a later collect can run them
                        for leftover in mine[i + 1:]:
                            leftover._claimed = False
                    raise
        else:
            shards = [self._make_executor() for _ in range(min(n, len(mine)))]
            try:
                futures = [self._dispatch(job, shards) for job in mine]
                for job, future in zip(mine, futures):
                    self._on_future(job, future)
            finally:
                for ex in shards:
                    ex.shutdown(wait=True)
        for job in batch.jobs:
            job.wait()
            if job.state == "failed":
                raise job.exception
        return batch.results()

    def run_many(self, specs, jobs: int | None = None) -> list[SimResult]:
        """Submit + collect: the synchronous batch API the facades use."""
        return self.collect(self.submit(specs), jobs=jobs)

    # -- lookups -------------------------------------------------------------

    def batch(self, batch_id: str) -> Batch | None:
        with self._lock:
            return self._batches.get(batch_id)

    def result_by_address(self, address: str) -> SimResult | None:
        """Resolve a content address via finished jobs, then the store."""
        with self._lock:
            job = self._jobs_by_id.get(address)
            if job is not None and job.state == "done":
                return job.result
        return self.store.get_by_address(address)

    def describe(self) -> dict:
        """Stats + store + lifecycle snapshot (the HTTP ``/v1/stats``)."""
        with self._lock:
            info = self.store.info()
            return {
                "phase": self.phase,
                "backend": self.backend,
                "jobs": self.jobs,
                "max_pending": self.max_pending,
                "pending": sum(1 for j in self._inflight.values() if not j.done()),
                "stats": self.stats.snapshot(),
                "store": dict(info._asdict()),
            }


"""Sweep-engine facade: declarative specs over the simulation service.

The unit of work is a :class:`SimSpec`: a small, picklable description of
one simulation (workload, machine, LSQ geometry, scale, seed, processor
config).  Specs have a *stable* cache key -- a canonical JSON rendering of
their fields, identical across processes and interpreter runs -- which is
the **content address** the whole service layer is keyed by.

Execution and caching live in :mod:`repro.service`:

* :class:`repro.service.session.SimService` owns the in-process memo,
  the content-addressed :class:`~repro.service.store.ResultStore`, and
  the sharded worker pool, with explicit lifecycle phases and in-flight
  dedup (N identical submissions cost one simulation);
* stores are pluggable (:class:`~repro.service.store.LocalDirStore`
  keeps the historical on-disk layout; ``MemoryStore``/``NullStore``
  behind the same interface) and configured explicitly with a
  :class:`~repro.service.store.CacheConfig`;
* ``repro serve`` / ``repro submit`` expose the same batches over
  HTTP/JSON (:mod:`repro.service.httpapi`).

This module keeps the **stable spec vocabulary** (``SimSpec``,
``lsq_spec``, ``mem_spec``, the canonical machines) plus thin,
bit-identical facades over a session: :func:`run_spec` (the pure worker
body), :func:`run_many` and :func:`sweep`.  Every facade accepts
``session=`` to target an explicit :class:`SimService` (or a
:class:`~repro.service.client.ServiceClient` speaking to a remote one);
with ``session=None`` they share :func:`default_session`, built once
over this module's memo and the default ``CacheConfig()`` store.

Scale: the paper simulates 100M instructions per benchmark on a native
simulator; this pure-Python model defaults to :data:`DEFAULT_INSTRUCTIONS`
measured instructions after :data:`DEFAULT_WARMUP` warmup instructions
per run.  A spec's scale is whatever its caller passed to
:meth:`SimSpec.make`; nothing read from the environment changes it.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Sequence

from repro.service.store import content_address

from repro.core.config import ProcessorConfig
from repro.core.pipeline import SimResult
from repro.core.processor import build_processor
from repro.mem.hierarchy import MemConfig
from repro.lsq.arb import ARBConfig, ARBLSQ
from repro.lsq.base import BaseLSQ
from repro.lsq.conventional import ConventionalLSQ
from repro.lsq.samie import SamieConfig, SamieLSQ
from repro.workloads.registry import (
    SCENARIO_SCHEME,
    TRACE_SCHEME,
    UnknownWorkloadError,
    has_workload,
    make_trace,
    resolve_trace_path,
)

#: bump when SimResult/semantics change so stale disk entries are ignored
#: (2: key gained sampling-plan and trace-digest fields; 3: non-blocking
#: memory hierarchy with MSHR merging changed default timings, the key
#: gained a MemConfig-override field, and sampled runs warm functionally;
#: 4: sampled-run semantics changed -- warm traffic left the measured
#: hit/miss statistics and producer distances clamp at window starts;
#: 5: ``extra`` gained the versioned ``telemetry`` envelope -- cached and
#: fresh results must agree on layout;
#: 6: MSHR stall counters switched to closed-form interval accounting
#: (telemetry envelope v2) -- values differ from the per-cycle-polled
#: definition at flush/run-end truncation boundaries)
CACHE_VERSION = 6


#: default measured / warmup instructions per simulation (``None`` in
#: :meth:`SimSpec.make` means these)
DEFAULT_INSTRUCTIONS = 6000
DEFAULT_WARMUP = 3000


_cache: dict[tuple, SimResult] = {}


def clear_cache() -> None:
    """Drop all memoised simulation results (in-process layer only)."""
    _cache.clear()


# -- declarative LSQ specs (picklable; what run_many fans out) ---------------

#: (kind, ((param, value), ...)) -- small, immutable, picklable
LSQSpec = tuple


def lsq_spec(kind: str, **params) -> LSQSpec:
    """Declarative LSQ description: ``("samie", (("banks", 64), ...))``."""
    return (kind, tuple(sorted(params.items())))


def build_lsq(spec: LSQSpec) -> BaseLSQ:
    """Construct the LSQ model described by an :func:`lsq_spec`."""
    kind, params = spec
    kw = dict(params)
    if kind == "conventional":
        return ConventionalLSQ(capacity=kw.get("capacity", 128))
    if kind == "samie":
        return SamieLSQ(SamieConfig(**kw))
    if kind == "arb":
        return ARBLSQ(ARBConfig(**kw))
    raise ValueError(f"unknown LSQ kind {kind!r}")


# -- declarative MemConfig overrides (picklable; part of SimSpec.key) --------

#: MemConfig field names accepted by :func:`mem_spec`
_MEM_FIELDS = frozenset(f.name for f in fields(MemConfig))
#: geometry sugar resolved against the (overridden) assoc/line size
_MEM_SUGAR = frozenset({"l1d_sets", "l1d_ways"})

#: ((field, value), ...) -- small, immutable, picklable
MemSpec = tuple


def mem_spec(**overrides) -> MemSpec:
    """Declarative memory-hierarchy override set for ``SimSpec.mem``.

    Keys are :class:`~repro.mem.hierarchy.MemConfig` field names plus the
    ``l1d_sets``/``l1d_ways`` sugar (resolved to ``l1d_size``/``l1d_assoc``
    against the configured line size), e.g.
    ``mem_spec(mshr_entries=4, l1d_sets=128)``.
    """
    for k in overrides:
        if k not in _MEM_FIELDS and k not in _MEM_SUGAR:
            raise ValueError(
                f"unknown MemConfig field {k!r}; choose from "
                f"{sorted(_MEM_FIELDS | _MEM_SUGAR)}"
            )
    if "l1d_ways" in overrides and "l1d_assoc" in overrides:
        # the sugar names the same knob; resolving a conflict silently
        # would cache a config the user never asked for
        raise ValueError("specify either l1d_ways or l1d_assoc, not both")
    return tuple(sorted(overrides.items()))


def validate_mem_spec(spec: MemSpec) -> None:
    """Eagerly construct the hierarchy ``spec`` describes.

    Bad *values* (zero MSHR entries, a non-power-of-two set count) only
    surface when the cache structures are built; constructing one here
    lets CLI/driver code fail fast with the constructor's message instead
    of tracebacking mid-sweep.  Raises ``ValueError`` on a bad spec.
    """
    from repro.mem.hierarchy import MemoryHierarchy

    MemoryHierarchy(make_mem_config(spec))


def parse_mem_overrides(text: str) -> MemSpec:
    """``"mshr_entries=4,l1d_sets=128"`` -> a validated :func:`mem_spec`.

    The CLI's ``--mem`` syntax; values are integers.
    """
    kw: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, val = part.partition("=")
        if not sep:
            raise ValueError(f"--mem expects key=value pairs, got {part!r}")
        try:
            kw[key.strip()] = int(val)
        except ValueError:
            raise ValueError(f"--mem value for {key.strip()!r} must be an "
                             f"integer, got {val!r}") from None
    if not kw:
        raise ValueError("--mem given but no overrides parsed")
    return mem_spec(**kw)


def make_mem_config(spec: MemSpec | None, base: MemConfig | None = None) -> MemConfig:
    """Apply a :func:`mem_spec` override set on top of ``base`` (or defaults)."""
    base = base if base is not None else MemConfig()
    if not spec:
        return base
    kw = dict(spec)
    ways = kw.pop("l1d_ways", None)
    if ways is not None:
        kw["l1d_assoc"] = ways  # mem_spec rejects ways+assoc together
    sets = kw.pop("l1d_sets", None)
    if sets is not None:
        line = kw.get("l1d_line", base.l1d_line)
        kw["l1d_size"] = sets * kw.get("l1d_assoc", base.l1d_assoc) * line
    return replace(base, **kw)


def _mem_token(spec: MemSpec | None) -> str:
    """JSON-stable scalar identity of a mem-override set ("" for none)."""
    if not spec:
        return ""
    return "/".join(f"{k}={v}" for k, v in spec)


# -- canonical machines: (machine_key, lsq_spec) pairs -----------------------

#: paper baseline: 128-entry fully-associative LSQ
MACHINE_CONV128 = ("conv128", lsq_spec("conventional", capacity=128))
#: Figure 1 reference machine: LSQ of unbounded size
MACHINE_UNBOUNDED = ("unbounded", lsq_spec("conventional", capacity=None))
#: paper Table 3 SAMIE configuration
MACHINE_SAMIE = ("samie", lsq_spec("samie"))


def machine_samie_unbounded_shared(banks: int = 64, entries: int = 2) -> tuple[str, LSQSpec]:
    """SAMIE with an unbounded SharedLSQ (sizing studies, Figures 3-4)."""
    return (
        f"samie-unb-{banks}x{entries}",
        lsq_spec("samie", banks=banks, entries_per_bank=entries, shared_entries=None),
    )


def machine_arb(
    banks: int, addresses: int, max_inflight: int = 128, tag: str = ""
) -> tuple[str, LSQSpec]:
    """ARB with the given geometry (Figure 1 sweep).

    A non-default ``max_inflight`` is encoded in the machine key: the key
    must uniquely name the machine (it is the cache identity).
    """
    key = f"arb{tag}-{banks}x{addresses}"
    if max_inflight != 128:
        key += f"-if{max_inflight}"
    return (
        key,
        lsq_spec("arb", banks=banks, addresses_per_bank=addresses, max_inflight=max_inflight),
    )


def config_token(cfg: ProcessorConfig | None) -> str:
    """Stable, cross-process identity of a processor config.

    Canonical JSON over ``dataclasses.asdict`` (sorted keys, nested
    MemConfig included) -- unlike ``repr(cfg)``, immune to field ordering,
    dataclass repr details, and future non-repr fields.
    """
    if cfg is None:
        return ""
    return json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"), default=str)


def _canonical_workload(workload: str) -> str:
    """A relative ``trace:`` path resolves to the canonical
    ``trace:<abspath>`` name -- one file, one cache identity,
    resolvable in pool workers regardless of their cwd.
    ``scenario:`` specs resolve to ``scenario:<canonical-json>`` -- a
    catalog name and the equivalent inline doc share one cache identity,
    and the canonical form is self-contained in pool workers."""
    if workload.startswith(SCENARIO_SCHEME):
        from repro.scenarios import canonical_scenario_name

        return canonical_scenario_name(workload)
    path = resolve_trace_path(workload)
    if path is None:
        return workload
    return TRACE_SCHEME + os.path.abspath(path)


def _trace_token(workload: str) -> str:
    """Content digest of a ``trace:`` workload's file ("" for synthetic).

    Binding the digest -- not just the path -- into the cache key means
    overwriting a trace file invalidates its cached results.
    """
    path = resolve_trace_path(workload)
    if path is None:
        return ""
    from repro.trace.format import trace_token

    return trace_token(path)


def _spec_key(
    workload: str,
    machine_key: str,
    instructions: int,
    warmup: int,
    seed: int,
    cfg: ProcessorConfig | None,
    sample: tuple | None = None,
    mem: MemSpec | None = None,
) -> tuple:
    """The one memo/store identity of a simulation.

    Every component is a JSON-stable scalar (the store compares the key
    after a JSON round trip, which would turn a tuple into a list).  The
    workload is canonicalised here too, so specs naming the same trace
    by relative or absolute path share one cache identity -- and
    a trace replay's seed is normalised away (recorded streams are
    independent of it; distinct seeds must not duplicate cache entries).
    """
    canonical = _canonical_workload(workload)
    return (
        canonical,
        machine_key,
        instructions,
        warmup,
        0 if canonical.startswith(TRACE_SCHEME) else seed,
        config_token(cfg),
        "/".join(str(x) for x in sample) if sample else "",
        _trace_token(workload),
        _mem_token(mem),
    )


@dataclass(frozen=True)
class SimSpec:
    """One simulation work item: everything a worker process needs.

    All fields are picklable; ``key`` is the stable memo/cache identity
    (``machine_key`` is required to uniquely name the LSQ geometry, as it
    always has for the in-process memo).  ``workload`` is a synthetic
    profile name, a canonical ``scenario:`` spec or a canonical
    ``trace:<abspath>`` replay name (:meth:`make` canonicalises, so specs
    stay resolvable inside pool workers).  ``sample`` is an optional
    ``(period, warmup, measure)`` systematic-sampling plan; when set, the
    per-window plan warmup replaces the spec-level ``warmup`` and
    ``instructions`` bounds the *measured* instruction count.  ``mem`` is
    an optional :func:`mem_spec` override set applied on top of the
    config's :class:`~repro.mem.hierarchy.MemConfig`, so one grid can
    cross cache geometry (l1d sets/ways, MSHR entries/targets, TLB size)
    with LSQ geometry.  ``warm_engine`` picks the functional-warming
    backend for sampled runs; it is deliberately **not** part of the
    cache key because the engines are bit-identical by contract (the
    equivalence tier enforces it), so either engine may serve a cached
    result computed by the other.
    """

    workload: str
    machine_key: str
    lsq: LSQSpec
    instructions: int
    warmup: int
    seed: int = 1
    cfg: ProcessorConfig | None = None
    sample: tuple[int, int, int] | None = None
    mem: MemSpec | None = None
    warm_engine: str = "vector"

    @classmethod
    def make(
        cls,
        workload: str,
        machine: tuple[str, LSQSpec],
        instructions: int | None = None,
        warmup: int | None = None,
        seed: int = 1,
        cfg: ProcessorConfig | None = None,
        sample: tuple[int, int, int] | None = None,
        mem: MemSpec | dict | None = None,
        warm_engine: str = "vector",
    ) -> "SimSpec":
        """Build a spec for ``machine`` at the given (or default) scale."""
        key, spec = machine
        return cls(
            workload=_canonical_workload(workload),
            machine_key=key,
            lsq=spec,
            instructions=instructions if instructions is not None else DEFAULT_INSTRUCTIONS,
            warmup=warmup if warmup is not None else DEFAULT_WARMUP,
            seed=seed,
            cfg=cfg,
            sample=tuple(sample) if sample else None,
            mem=mem_spec(**mem) if isinstance(mem, dict) else (
                mem_spec(**dict(mem)) if mem else None
            ),
            warm_engine=warm_engine,
        )

    @property
    def key(self) -> tuple:
        """Stable memo/store key (see :func:`_spec_key`)."""
        return _spec_key(
            self.workload, self.machine_key, self.instructions, self.warmup,
            self.seed, self.cfg, self.sample, self.mem,
        )

    @property
    def cache_id(self) -> str:
        """Filesystem-safe digest of :attr:`key` for the disk cache."""
        return _cache_id(self.key)


def _cache_id(key: tuple) -> str:
    return content_address(key, CACHE_VERSION)


# -- the default session -----------------------------------------------------

_default_session = None


def default_session():
    """The process-wide :class:`~repro.service.session.SimService`.

    Built once, over this module's memo (``_cache``) and the default
    ``CacheConfig()`` store; the facades use it when ``session=None``.
    """
    global _default_session
    if _default_session is None:
        from repro.service.session import SimService

        _default_session = SimService(memo=_cache).standup()
    return _default_session


# -- execution ---------------------------------------------------------------

def build_spec_pipeline(spec: SimSpec):
    """``(pipeline, trace)`` for a spec, not yet attached or run.

    The construction half of :func:`run_spec`, split out so
    instrumenting drivers (:func:`repro.obs.profile.run_profiled`) can
    hook the pipeline before any cycle executes.
    """
    if not has_workload(spec.workload):
        raise UnknownWorkloadError(f"unknown workload {spec.workload!r}")
    cfg = spec.cfg
    if spec.mem:
        base = cfg or ProcessorConfig()
        cfg = replace(base, mem=make_mem_config(spec.mem, base.mem))
    pipe = build_processor(build_lsq(spec.lsq), cfg)
    trace = make_trace(spec.workload, spec.seed)
    return pipe, trace


def run_spec(spec: SimSpec) -> SimResult:
    """Simulate one spec, no caching (the pure worker body)."""
    pipe, trace = build_spec_pipeline(spec)
    if spec.sample:
        from repro.trace.sampling import SamplePlan, run_sampled

        return run_sampled(
            pipe, trace, SamplePlan(*spec.sample),
            max_measured=spec.instructions, warm_engine=spec.warm_engine,
        )
    pipe.attach_trace(trace)
    return pipe.run(spec.instructions, warmup=spec.warmup)


def _pool_worker(spec: SimSpec) -> SimResult:
    return run_spec(spec)


def _pool_worker_traced(spec: SimSpec, ctx: dict | None):
    """Observability-aware worker body: ``(result, spans)``.

    ``ctx`` is the parent's span-context snapshot (run/batch/shard IDs).
    The worker re-enters it, simulates, and hands its spans back beside
    the result -- never inside it, so results stay bit-identical whether
    or not anyone is watching.  With ``ctx=None`` this degrades to
    :func:`_pool_worker` plus an empty span list.
    """
    from repro.obs import spans as _spans

    with _spans.worker_spans(ctx) as captured:
        with _spans.span("job.simulate", spec=spec.cache_id[:12],
                         workload=spec.workload):
            result = run_spec(spec)
    return result, (captured or [])


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value (``None``/``0`` -> all cores)."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def jobs_from_env(default: int = 1) -> int:
    """Worker count from ``REPRO_JOBS`` (0 = one per core).

    The benchmark harness and ablation benches read their parallelism
    from here so the env semantics live next to the engine.
    """
    return resolve_jobs(int(os.environ.get("REPRO_JOBS", str(default))))


def run_many(
    specs: Sequence[SimSpec], jobs: int | None = 1, session=None
) -> list[SimResult]:
    """Run a batch of specs, results in spec order.

    Thin facade over :meth:`SimService.run_many` on :func:`default_session`
    (pass ``session=`` -- a :class:`~repro.service.session.SimService`
    or a remote :class:`~repro.service.client.ServiceClient` -- to
    target another one).  Each spec is served from the session memo,
    joined onto an identical in-flight job, served from the result
    store, or simulated -- fanned out over sharded process workers when
    ``jobs > 1`` (``jobs <= 0`` means one worker per core).  Results are
    bit-identical to the serial path: workers are pure functions of
    their spec.
    """
    if session is None:
        session = default_session()
    return session.run_many(specs, jobs=jobs)


def sweep(
    workloads: Iterable[str],
    machines: Iterable[tuple[str, LSQSpec]],
    instructions: int | None = None,
    warmup: int | None = None,
    seed: int = 1,
    jobs: int | None = 1,
    mem: MemSpec | dict | None = None,
    session=None,
) -> dict[tuple[str, str], SimResult]:
    """Cross-product convenience: {(workload, machine_key): result}.

    Results are keyed by the workload names the caller passed (a
    relative ``trace:`` path stays relative here), even though the
    underlying specs carry canonical names.  ``mem`` applies one
    :func:`mem_spec` override set to every point; for a cache-geometry
    cross-product build the ``SimSpec`` batch directly with per-point
    ``mem=`` values.
    """
    machines = list(machines)
    pairs = [(w, m) for w in workloads for m in machines]
    specs = [SimSpec.make(w, m, instructions, warmup, seed, mem=mem) for w, m in pairs]
    results = run_many(specs, jobs=jobs, session=session)
    return {(w, m[0]): r for (w, m), r in zip(pairs, results)}


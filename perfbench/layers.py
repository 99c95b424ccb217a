"""Per-layer timing for the traced run, installed from outside ``src/``.

A *span* is one call into a layer's public function.  Each wrapper
pushes a frame on a per-thread stack, times the call and, on return,
charges the call's duration to its parent frame as child time.  A
function's self time is its duration minus its children's, so summing
self time over a layer's functions gives the layer's self time without
double counting nested layers.  Totals are kept per function (never per
call) in per-thread dicts and merged once, at the end of the run.

``install(tracer, simulator)`` patches the functions and returns a callable
that restores every original.  Which patch goes where follows how the
simulator binds its callees:

* LSQ and branch classes are slotted, so their own public methods are
  wrapped on the class.  Only methods a concrete class defines itself
  are wrapped: wrapping an inherited no-op ``begin_cycle`` on a subclass
  would defeat the pipeline's "base no-op is skipped" test.  These
  patches go in before any pipeline is built, because
  ``Pipeline.__init__`` stores ``begin_cycle``, ``area_breakdown`` and
  ``on_l1_evict`` as bound methods.
* The pipeline stages and the ``MemoryHierarchy`` methods are wrapped
  per instance, right after ``build_processor`` returns.  The MSHR
  retire and clock advance that ``Pipeline.step`` inlines stay
  unwrapped, so that time counts as pipeline time, not memory time.
* A generated trace is replaced by a proxy whose ``__next__`` is timed;
  ``take_batch`` and the scenario hooks still resolve through it.
* In the service, a request handled on a server thread counts as a
  child of the client call waiting for it, so the client's own
  ``_request`` self time is transport only.
"""

from __future__ import annotations

import threading
import types
from collections import defaultdict
from time import perf_counter

#: stage method -> bucket; Pipeline.step dispatches through these
STAGES = {
    "_fetch": "pipeline.fetch",
    "_dispatch": "pipeline.dispatch",
    "_issue": "pipeline.issue",
    "_memory_issue": "pipeline.memory_issue",
    "_commit": "pipeline.commit",
    "_complete": "pipeline.complete",
}
#: other Pipeline entry points; their self time is pipeline "other"
PIPELINE_OTHER = ("run", "step", "_skip_quiescent", "reset_stats", "result")
MEM_METHODS = (
    "daccess", "daccess_blocked", "iaccess", "new_cycle",
    "warm_daccess", "warm_iaccess", "mshr_stats", "reset_mshr_stats",
)


class Tracer:
    """Per-thread span stacks feeding per-function totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[dict] = []
        self._lock = threading.Lock()
        #: inclusive seconds of server-side request handling, read by the
        #: client wrapper to treat the handler as a child of its request
        self.handled = 0.0
        #: service batch id -> [first dispatch, last finish] (perf_counter)
        self.batch_spans: dict[str, list[float]] = {}

    def _state(self) -> dict:
        st = getattr(self._local, "st", None)
        if st is None:
            st = {
                "stack": [[None, 0.0]],  # frame = [bucket, child seconds]
                # (bucket, function) -> [self s, inclusive s, calls]
                "funcs": defaultdict(lambda: [0.0, 0.0, 0]),
                "counts": defaultdict(float),
            }
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def count(self, name: str, value: float = 1) -> None:
        self._state()["counts"][name] += value

    def mark_batch(self, batch_id: str) -> None:
        """Widen ``batch_id``'s simulate span to include now."""
        now = perf_counter()
        with self._lock:
            span = self.batch_spans.setdefault(batch_id, [now, now])
            span[0] = min(span[0], now)
            span[1] = max(span[1], now)

    def wrap(self, bucket: str, fn, name: str | None = None,
             inside: tuple = ()):
        """A timing wrapper around ``fn``.

        ``inside`` lists parent buckets under which the call is folded
        into the parent instead of opening a span (e.g. result encoding
        done by a store write belongs to the store write).
        """
        key = (bucket, name or getattr(fn, "__qualname__", repr(fn)))
        state = self._state
        local = self._local

        def traced(*args, **kwargs):
            # the clock starts before and stops after the bookkeeping, so
            # the wrapper's own cost is charged to the callee's layer
            t0 = perf_counter()
            st = getattr(local, "st", None) or state()
            stack = st["stack"]
            if inside and stack[-1][0] in inside:
                return fn(*args, **kwargs)
            frame = [bucket, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                dt = perf_counter() - t0
                stack[-1][1] += dt
                rec = st["funcs"][key]
                rec[0] += dt - frame[1]
                rec[1] += dt
                rec[2] += 1

        return traced

    def wrap_remote_parent(self, bucket: str, fn, name: str):
        """Like :meth:`wrap`, but time handled by server threads while
        the call runs is charged as the call's child time."""
        key = (bucket, name)
        state = self._state
        local = self._local

        def traced(*args, **kwargs):
            t0 = perf_counter()
            st = getattr(local, "st", None) or state()
            stack = st["stack"]
            frame = [bucket, 0.0]
            stack.append(frame)
            h0 = self.handled
            try:
                return fn(*args, **kwargs)
            finally:
                frame[1] += self.handled - h0
                stack.pop()
                dt = perf_counter() - t0
                stack[-1][1] += dt
                rec = st["funcs"][key]
                rec[0] += dt - frame[1]
                rec[1] += dt
                rec[2] += 1

        return traced

    def wrap_handler(self, bucket: str, fn, name: str):
        """A server-side request handler: a span that also publishes its
        inclusive time for :meth:`wrap_remote_parent`."""
        inner = self.wrap(bucket, fn, name)

        def handler(*args, **kwargs):
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.handled += perf_counter() - t0

        return handler

    # -- results ---------------------------------------------------------------

    def functions(self) -> dict:
        """Merged ``(bucket, function) -> [self s, inclusive s, calls]``."""
        out: dict = defaultdict(lambda: [0.0, 0.0, 0])
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, (s, incl, n) in list(st["funcs"].items()):
                rec = out[key]
                rec[0] += s
                rec[1] += incl
                rec[2] += n
        return dict(out)

    def buckets(self) -> dict:
        """``bucket -> [self s, inclusive s, calls]``."""
        out: dict = defaultdict(lambda: [0.0, 0.0, 0])
        for (bucket, _), (s, incl, n) in self.functions().items():
            rec = out[bucket]
            rec[0] += s
            rec[1] += incl
            rec[2] += n
        return dict(out)

    def counts(self) -> dict:
        out: dict = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for k, v in list(st["counts"].items()):
                out[k] += v
        return dict(out)


class TracedStream:
    """Trace proxy: times ``__next__`` (the generator and the ``UOp``
    objects it builds) and forwards every other attribute, so
    ``take_batch`` and the scenario-stream hooks stay visible."""

    def __init__(self, inner, next_fn) -> None:
        self._inner = inner
        self._next = next_fn

    def __iter__(self):
        return self

    def __next__(self):
        return self._next(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Patches:
    """Undo log of attribute patches."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()


def _own_public_methods(cls):
    return [
        name for name, value in vars(cls).items()
        if isinstance(value, types.FunctionType) and not name.startswith("_")
    ]


def _wrap_class_methods(tracer, patches, cls, bucket, names=None):
    for name in names if names is not None else _own_public_methods(cls):
        fn = cls.__dict__[name]
        patches.set(cls, name, tracer.wrap(bucket, fn, f"{cls.__name__}.{name}"))


def _install_simulator(tracer: Tracer, patches: _Patches) -> None:
    """Wrappers for the layers a simulation runs through in-process."""
    from repro.branch.bimodal import BimodalPredictor
    from repro.branch.btb import BTB
    from repro.branch.gshare import GsharePredictor
    from repro.branch.hybrid import HybridPredictor
    from repro.experiments import runner
    from repro.lsq.arb import ARBLSQ
    from repro.lsq.conventional import ConventionalLSQ
    from repro.lsq.samie import SamieLSQ
    from repro.trace import fastwarm, sampling

    for cls in (ConventionalLSQ, SamieLSQ, ARBLSQ):
        _wrap_class_methods(tracer, patches, cls, "lsq")
    for cls in (HybridPredictor, GsharePredictor, BimodalPredictor, BTB):
        _wrap_class_methods(tracer, patches, cls, "branch")

    # workloads: building the generator, then every uop it yields
    gen_next = tracer.wrap("workloads", next, "TraceBuilder.generate")
    make_trace = runner.make_trace

    def traced_make_trace(name, seed=1):
        return TracedStream(make_trace(name, seed), gen_next)

    patches.set(runner, "make_trace", tracer.wrap(
        "workloads", traced_make_trace, "registry.make_trace"))

    # pipeline + memory hierarchy, per instance
    build = runner.build_processor

    def build_traced(*args, **kwargs):
        pipe = build(*args, **kwargs)
        _wrap_instance(tracer, pipe)
        return pipe

    patches.set(runner, "build_processor", tracer.wrap(
        "pipeline.other", build_traced, "processor.build_processor"))

    # trace: sampling driver, gap batching and the warm engines
    patches.set(sampling, "run_sampled", tracer.wrap(
        "trace.other", sampling.run_sampled, "sampling.run_sampled"))
    patches.set(sampling, "make_warm_engine", tracer.wrap(
        "trace.other", sampling.make_warm_engine, "sampling.make_warm_engine"))
    patches.set(fastwarm, "uops_to_batch", tracer.wrap(
        "trace.to_batch", fastwarm.uops_to_batch, "fastwarm.uops_to_batch"))
    stream = sampling.SampledStream
    _wrap_class_methods(tracer, patches, stream, "trace.other",
                        ["__next__", "_pull_batch"])
    skip = stream.__dict__["_skip_batch"]

    def skip_counted(self, want):
        n = skip(self, want)
        tracer.count("trace.skipped_uops", n)
        return n

    patches.set(stream, "_skip_batch", tracer.wrap(
        "trace.other", skip_counted, "SampledStream._skip_batch"))
    _wrap_class_methods(tracer, patches, fastwarm.VectorWarmEngine,
                        "trace.warm_batch", ["warm_batch"])
    _wrap_class_methods(tracer, patches, sampling.ScalarWarmEngine,
                        "trace.warm_batch", ["warm"])


def _wrap_instance(tracer: Tracer, pipe) -> None:
    """Shadow one pipeline's stage methods and its hierarchy's methods.

    Counting happens inside the span, so its cost, like the wrapper's,
    is charged to the callee."""
    mem = pipe.mem
    run, daccess, blocked = pipe.run, mem.daccess, mem.daccess_blocked

    def run_counted(*args, **kwargs):
        c0, s0, k0 = pipe.cycle, pipe.skipped_cycles, pipe.committed
        out = run(*args, **kwargs)
        tracer.count("pipeline.cycles", pipe.cycle - c0)
        tracer.count("pipeline.cycles_skipped", pipe.skipped_cycles - s0)
        tracer.count("pipeline.committed", pipe.committed - k0)
        return out

    def daccess_counted(*args, **kwargs):
        out = daccess(*args, **kwargs)
        tracer.count("mem.daccess")
        if not out.l1_hit:
            tracer.count("mem.l1d_misses")
        return out

    def blocked_counted(*args, **kwargs):
        out = blocked(*args, **kwargs)
        tracer.count("mem.blocked_polls")
        if out:
            tracer.count("mem.blocked")
        return out

    counted = {"run": run_counted, "daccess": daccess_counted,
               "daccess_blocked": blocked_counted}
    for name, bucket in STAGES.items():
        setattr(pipe, name, tracer.wrap(bucket, getattr(pipe, name),
                                        f"Pipeline.{name}"))
    for name in PIPELINE_OTHER:
        setattr(pipe, name, tracer.wrap(
            "pipeline.other", counted.get(name) or getattr(pipe, name),
            f"Pipeline.{name}"))
    for name in MEM_METHODS:
        setattr(mem, name, tracer.wrap(
            "mem", counted.get(name) or getattr(mem, name),
            f"MemoryHierarchy.{name}"))


def _install_service(tracer: Tracer, patches: _Patches) -> None:
    """Wrappers for the service layer and spec construction."""
    from repro.core.pipeline import SimResult
    from repro.experiments import figure5, runner
    from repro.service import client, httpapi, session, store, wire

    patches.set(httpapi, "specs_from_docs", tracer.wrap(
        "service.wire_decode", httpapi.specs_from_docs, "wire.specs_from_docs"))
    patches.set(wire, "spec_to_doc", tracer.wrap(
        "service.client_encode", wire.spec_to_doc, "wire.spec_to_doc"))
    svc = session.SimService
    _wrap_class_methods(tracer, patches, svc, "service.admission", ["submit"])
    _wrap_class_methods(tracer, patches, svc, "service.other", ["run_many", "collect"])
    schedule = tracer.wrap("service.dispatch", svc.__dict__["_schedule_locked"],
                           "SimService._schedule_locked")
    finish = svc.__dict__["_finish"]

    def schedule_marked(self, job):
        tracer.mark_batch(job.batch_id)
        return schedule(self, job)

    def finish_marked(self, job, result):
        finish(self, job, result)
        tracer.mark_batch(job.batch_id)

    patches.set(svc, "_schedule_locked", schedule_marked)
    patches.set(svc, "_finish", finish_marked)
    _wrap_class_methods(tracer, patches, session.Batch, "wait", ["wait"])
    _wrap_class_methods(tracer, patches, store.InstrumentedStore,
                        "service.store_get", ["get"])
    _wrap_class_methods(tracer, patches, store.InstrumentedStore,
                        "service.store_put", ["put"])
    patches.set(SimResult, "to_dict", tracer.wrap(
        "service.result_encode", SimResult.__dict__["to_dict"], "SimResult.to_dict",
        inside=("service.store_put",)))
    from_dict = SimResult.__dict__["from_dict"].__func__
    patches.set(SimResult, "from_dict", classmethod(tracer.wrap(
        "service.client_decode", from_dict, "SimResult.from_dict",
        inside=("service.store_get", "service.store_put"))))
    handler = httpapi._Handler
    for name in ("do_GET", "do_POST"):
        patches.set(handler, name, tracer.wrap_handler(
            "service.handler", handler.__dict__[name], f"_Handler.{name}"))
    patches.set(client.ServiceClient, "_request", tracer.wrap_remote_parent(
        "service.http", client.ServiceClient.__dict__["_request"],
        "ServiceClient._request"))

    # experiments: spec construction and identity, and the drivers
    spec = runner.SimSpec
    make = spec.__dict__["make"].__func__
    patches.set(spec, "make", classmethod(tracer.wrap(
        "experiments.spec_build", make, "SimSpec.make")))
    for name in ("key", "cache_id"):
        prop = spec.__dict__[name]
        patches.set(spec, name, property(tracer.wrap(
            "experiments.spec_build", prop.fget, f"SimSpec.{name}")))
    patches.set(figure5, "compute", tracer.wrap(
        "experiments.other", figure5.compute, "figure5.compute"))
    patches.set(runner, "run_spec", tracer.wrap(
        "experiments.other", runner.run_spec, "runner.run_spec"))


def install(tracer: Tracer, simulator: bool):
    """Install every wrapper; returns the function that removes them.

    ``simulator=False`` leaves the simulator layers unwrapped, for a run
    whose simulations execute in worker processes.
    """
    patches = _Patches()
    try:
        _install_service(tracer, patches)
        if simulator:
            _install_simulator(tracer, patches)
    except BaseException:
        patches.restore()
        raise
    return patches.restore

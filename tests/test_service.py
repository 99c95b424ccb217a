"""Tests for ``SimService``: lifecycle, dedup, admission, bit-identity."""

from __future__ import annotations

import threading

import pytest

from repro.experiments import runner
from repro.experiments.runner import MACHINE_CONV128, MACHINE_SAMIE, SimSpec
from repro.service.session import (
    AdmissionError,
    PhaseError,
    ServiceError,
    SimService,
)
from repro.service.store import CacheConfig, LocalDirStore, MemoryStore

SMALL = dict(instructions=400, warmup=100)


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Fresh in-process memo of the default session per test."""
    runner.clear_cache()
    yield
    runner.clear_cache()


def _spec(workload="gzip", machine=MACHINE_SAMIE, **kw):
    return SimSpec.make(workload, machine, **SMALL, **kw)


def _service(**kw):
    kw.setdefault("store", MemoryStore())
    return SimService(**kw)


class TestLifecycle:
    def test_phases_progress(self):
        svc = _service()
        assert svc.phase == "created"
        svc.standup()
        assert svc.phase == "run"
        svc.standup()  # idempotent
        svc.analysis()
        assert svc.phase == "analysis"
        svc.teardown()
        assert svc.phase == "teardown"
        svc.teardown()  # idempotent

    def test_illegal_transitions(self):
        svc = _service()
        with pytest.raises(PhaseError):
            svc.analysis()  # created -> analysis skips standup
        svc.teardown()
        with pytest.raises(PhaseError):
            svc.standup()
        with pytest.raises(PhaseError):
            svc.submit([_spec()])

    def test_context_manager(self):
        with _service() as svc:
            assert svc.phase == "run"
        assert svc.phase == "teardown"

    def test_submit_stands_up_lazily(self):
        svc = _service()
        svc.run_many([_spec()])
        assert svc.phase == "run"
        svc.teardown()

    def test_analysis_serves_cached_refuses_new(self):
        svc = _service()
        spec = _spec()
        [cached] = svc.run_many([spec])
        svc.analysis()
        batch = svc.submit([spec])  # memo hit: fine in analysis
        assert batch.jobs[0].state == "done"
        assert batch.results() == [cached]
        with pytest.raises(AdmissionError, match="read-only"):
            svc.submit([_spec("swim")])
        assert svc.stats.snapshot()["rejected"] == 1
        svc.teardown()

    def test_teardown_fails_leftover_queued_jobs(self):
        svc = _service()  # jobs=None: nothing executes until collect()
        batch = svc.submit([_spec()])
        assert batch.jobs[0].state == "queued"
        svc.teardown()
        assert batch.jobs[0].state == "failed"
        assert isinstance(batch.jobs[0].exception, ServiceError)


class TestDedup:
    def test_batch_duplicates_share_one_job(self, monkeypatch):
        calls = []
        real = runner.run_spec
        monkeypatch.setattr(runner, "run_spec", lambda s: calls.append(s) or real(s))
        svc = _service()
        spec = _spec()
        a, b, c = svc.run_many([spec, spec, spec])
        assert a is b is c
        assert len(calls) == 1
        assert svc.stats.snapshot()["simulated"] == 1
        assert svc.stats.snapshot()["dedup_batch"] == 2
        svc.teardown()

    def test_memo_hit_on_second_batch(self):
        svc = _service()
        spec = _spec()
        [first] = svc.run_many([spec])
        [second] = svc.run_many([spec])
        assert first is second
        assert svc.stats.snapshot()["memo_hits"] == 1
        assert svc.stats.snapshot()["simulated"] == 1
        svc.teardown()

    def test_thundering_herd_costs_one_simulation(self, monkeypatch):
        # N concurrent identical submissions while the first is running:
        # everyone joins the in-flight job, exactly one simulation happens
        real = runner.run_spec
        entered = threading.Event()
        release = threading.Event()
        calls = []

        def gated(spec):
            calls.append(spec)
            entered.set()
            assert release.wait(10)
            return real(spec)

        monkeypatch.setattr(runner, "run_spec", gated)
        svc = _service(jobs=1, backend="thread")
        svc.standup()
        spec = _spec()
        first = svc.submit([spec])  # scheduled on the standing shard
        assert entered.wait(10)

        herd_results = []

        def submit_and_wait():
            herd_results.append(svc.run_many([spec])[0])

        herd = [threading.Thread(target=submit_and_wait) for _ in range(6)]
        for t in herd:
            t.start()
        while svc.stats.snapshot()["dedup_inflight"] < 6:
            pass  # herd admitted (joined, not queued); nothing new scheduled
        release.set()
        for t in herd:
            t.join(10)
        assert first.wait(10)
        assert len(calls) == 1
        assert svc.stats.snapshot()["simulated"] == 1
        assert svc.stats.snapshot()["dedup_inflight"] == 6
        ref = first.jobs[0].result
        assert all(r is ref for r in herd_results)
        svc.teardown()

    def test_store_hit_warms_restart(self, tmp_path):
        cache = CacheConfig(backend="local", directory=str(tmp_path / "c"))
        first = SimService(cache=cache)
        specs = [_spec(), _spec("swim"), _spec(machine=MACHINE_CONV128)]
        results = first.run_many(specs)
        assert first.stats.snapshot()["simulated"] == 3
        first.teardown()
        # a brand-new session over the same store: everything served warm
        second = SimService(cache=cache)
        batch = second.submit(specs)
        assert [j.state for j in batch.jobs] == ["done"] * 3
        assert [j.source for j in batch.jobs] == ["store"] * 3
        assert second.collect(batch) == results
        assert second.stats.snapshot()["simulated"] == 0
        assert second.stats.snapshot()["store_hits"] == 3
        second.teardown()

    def test_failed_job_can_be_retried(self, monkeypatch):
        svc = _service()
        spec = _spec()
        boom = RuntimeError("injected")
        monkeypatch.setattr(runner, "run_spec",
                            lambda s: (_ for _ in ()).throw(boom))
        with pytest.raises(RuntimeError, match="injected"):
            svc.run_many([spec])
        assert svc.stats.snapshot()["failed"] == 1
        monkeypatch.undo()
        [result] = svc.run_many([spec])  # the failure was not memoised
        assert result.instructions >= SMALL["instructions"]
        svc.teardown()

    def test_inline_failure_releases_later_jobs(self, monkeypatch):
        svc = _service()
        bad, good = _spec(), _spec("swim")
        real = runner.run_spec
        monkeypatch.setattr(
            runner, "run_spec",
            lambda s: (_ for _ in ()).throw(RuntimeError("boom"))
            if s.workload == "gzip" else real(s),
        )
        batch = svc.submit([bad, good])
        with pytest.raises(RuntimeError, match="boom"):
            svc.collect(batch)
        # the good job was claimed but never ran; a later collect must
        # still be able to execute it
        good_batch = svc.submit([good])
        [res] = svc.collect(good_batch)
        assert res.lsq_name == "samie"
        svc.teardown()


class TestAdmission:
    def test_max_pending_refuses_whole_batch(self, monkeypatch):
        entered = threading.Event()
        release = threading.Event()
        real = runner.run_spec

        def gated(spec):
            entered.set()
            assert release.wait(10)
            return real(spec)

        monkeypatch.setattr(runner, "run_spec", gated)
        svc = _service(jobs=1, backend="thread", max_pending=1)
        svc.standup()
        first = svc.submit([_spec()])
        assert entered.wait(10)
        with pytest.raises(AdmissionError, match="max_pending"):
            svc.submit([_spec("swim"), _spec("ammp")])
        assert svc.stats.snapshot()["rejected"] == 2
        # the refusal is atomic: nothing from the refused batch is queued
        assert svc.pending() == 1
        release.set()
        assert first.wait(10)
        # capacity freed: one-new-job batches are admitted again
        svc.run_many([_spec("swim")])
        svc.run_many([_spec("ammp")])
        svc.teardown()

    def test_joins_and_hits_bypass_max_pending(self):
        svc = _service(max_pending=1)
        spec = _spec()
        svc.run_many([spec])
        # all hits: no new jobs, so a 3-spec batch passes max_pending=1
        batch = svc.submit([spec, spec, spec])
        assert all(j.state == "done" for j in batch.jobs)
        svc.teardown()

    def test_unknown_workload_rejected_before_any_work(self):
        svc = _service()
        with pytest.raises(KeyError, match="quake3"):
            svc.submit([_spec(), SimSpec.make("quake3", MACHINE_SAMIE, **SMALL)])
        assert svc.pending() == 0
        svc.teardown()

    def test_colliding_machine_keys_rejected_across_batches(self, monkeypatch):
        entered = threading.Event()
        release = threading.Event()
        real = runner.run_spec

        def gated(spec):
            entered.set()
            assert release.wait(10)
            return real(spec)

        monkeypatch.setattr(runner, "run_spec", gated)
        from repro.experiments.runner import lsq_spec

        svc = _service(jobs=1, backend="thread")
        svc.standup()
        a = SimSpec.make("gzip", ("dup", lsq_spec("samie", banks=64)), **SMALL)
        b = SimSpec.make("gzip", ("dup", lsq_spec("samie", banks=32)), **SMALL)
        first = svc.submit([a])
        assert entered.wait(10)
        with pytest.raises(ValueError, match="uniquely"):
            svc.submit([b])  # same machine_key in flight, different geometry
        release.set()
        first.wait(10)
        svc.teardown()


class TestExecutionModes:
    def test_thread_backend_matches_inline(self):
        specs = [_spec(w, m) for w in ("gzip", "swim", "ammp")
                 for m in (MACHINE_CONV128, MACHINE_SAMIE)]
        inline = _service(backend="inline").run_many(specs)
        threaded = _service(backend="thread").run_many(specs, jobs=4)
        assert inline == threaded

    def test_process_backend_matches_inline(self):
        specs = [_spec(), _spec("swim")]
        inline = _service(backend="inline").run_many(specs)
        procs = _service(backend="process").run_many(specs, jobs=2)
        assert inline == procs

    def test_store_and_cache_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            SimService(store=MemoryStore(), cache=CacheConfig())
        with pytest.raises(ValueError, match="backend"):
            SimService(backend="quantum")

    def test_result_by_address_job_then_store(self):
        svc = _service()
        spec = _spec()
        [result] = svc.run_many([spec])
        assert svc.result_by_address(spec.cache_id) is result  # finished job
        fresh = SimService(store=svc.store)
        assert fresh.result_by_address(spec.cache_id) == result  # the store
        assert fresh.result_by_address("0" * 40) is None
        svc.teardown()

    def test_describe_snapshot(self):
        svc = _service(jobs=2, backend="thread", max_pending=9)
        svc.run_many([_spec()])
        doc = svc.describe()
        assert doc["phase"] == "run"
        assert doc["max_pending"] == 9
        assert doc["stats"]["simulated"] == 1
        assert doc["stats"]["deduplicated"] == 0
        assert doc["store"]["backend"] == "memory"
        svc.teardown()


class TestFacades:
    """The legacy runner entry points are thin shims over a session."""

    def test_run_many_defaults_to_local_store(self):
        spec = _spec()
        runner.run_many([spec], jobs=1)
        store = runner.default_session().store
        # the session wraps its store in the instrumented proxy; the
        # configured backend sits one unwrap below
        assert isinstance(store.unwrap(), LocalDirStore)
        assert store.directory == CacheConfig().resolved_dir()
        assert store.get(spec.key) is not None

    def test_explicit_session_kwarg(self):
        default_before = runner.default_session().stats.snapshot()["simulated"]
        svc = _service()
        spec = _spec()
        [via_facade] = runner.run_many([spec], session=svc)
        assert svc.stats.snapshot()["simulated"] == 1
        assert svc.store.get(spec.key) == via_facade
        # the default session was never touched
        assert runner.default_session().stats.snapshot()["simulated"] == default_before
        svc.teardown()

    def test_facade_and_session_share_the_memo(self):
        spec = _spec()
        [direct] = runner.run_many([spec], jobs=1)
        # the default session's memo IS runner._cache: no recompute either way
        [via_session] = runner.default_session().run_many([spec])
        assert direct is via_session

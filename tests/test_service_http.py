"""Tests for the HTTP/JSON front end, its client, and the wire codec."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.core.config import ProcessorConfig
from repro.experiments import runner
from repro.experiments.runner import MACHINE_CONV128, MACHINE_SAMIE, SimSpec, mem_spec
from repro.mem.hierarchy import MemConfig
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.httpapi import ServiceHTTPServer
from repro.service.session import SimService
from repro.service.store import MemoryStore
from repro.service.wire import spec_from_doc, spec_to_doc, specs_from_docs

SMALL = dict(instructions=400, warmup=100)


def _spec(workload="gzip", machine=MACHINE_SAMIE, **kw):
    return SimSpec.make(workload, machine, **SMALL, **kw)


@pytest.fixture()
def served():
    """An in-process service + live HTTP server + client."""
    service = SimService(store=MemoryStore(), jobs=2, backend="thread")
    service.standup()
    server = ServiceHTTPServer(service, port=0)
    server.start_background()
    try:
        yield service, server, ServiceClient(server.url, timeout=30)
    finally:
        server.shutdown()
        server.server_close()
        service.teardown()


class TestWireCodec:
    @pytest.mark.parametrize("spec", [
        _spec(),
        _spec("swim", MACHINE_CONV128, seed=7),
        _spec(mem=mem_spec(mshr_entries=4, l1d_sets=128)),
        _spec(cfg=ProcessorConfig(mem=MemConfig(fast_way_hit_latency=1))),
        SimSpec.make("gzip", MACHINE_SAMIE, **SMALL, sample=(10000, 3000, 1000)),
    ])
    def test_round_trip_preserves_the_key(self, spec):
        doc = json.loads(json.dumps(spec_to_doc(spec)))  # a real wire hop
        clone = spec_from_doc(doc)
        assert clone.key == spec.key
        assert clone.cache_id == spec.cache_id

    @pytest.mark.parametrize("mangle,match", [
        (lambda d: d.pop("workload"), "missing required field"),
        (lambda d: d.pop("lsq"), "missing required field"),
        (lambda d: d.update(lsq="samie"), "kind"),
        (lambda d: d.update(lsq={"params": {}}), "kind"),
        (lambda d: d.update(turbo=True), "unknown spec fields"),
        (lambda d: d.update(sample=[1, 2]), "triple"),
        (lambda d: d.update(mem={"l3_size": 1}), "unknown MemConfig field"),
        (lambda d: d.update(cfg={"flux_capacitor": 1}),
         "unknown ProcessorConfig fields"),
        (lambda d: d.update(cfg={"mem": {"l9_size": 1}}),
         "unknown MemConfig fields"),
    ])
    def test_malformed_docs_raise_value_error(self, mangle, match):
        doc = spec_to_doc(_spec())
        mangle(doc)
        with pytest.raises(ValueError, match=match):
            spec_from_doc(doc)

    def test_batch_decode_annotates_the_index(self):
        good = spec_to_doc(_spec())
        with pytest.raises(ValueError, match=r"specs\[1\]"):
            specs_from_docs([good, {"workload": "gzip"}])
        with pytest.raises(ValueError, match="non-empty"):
            specs_from_docs([])
        assert [s.key for s in specs_from_docs([good])] == [_spec().key]


class TestEndpoints:
    def test_health_and_stats(self, served):
        service, _, client = served
        assert client.health() == {"ok": True, "phase": "run"}
        doc = client.stats()
        assert doc["phase"] == "run"
        assert doc["store"]["backend"] == "memory"
        assert doc["stats"]["submitted"] == 0

    def test_duplicated_batch_dedups_and_matches_serial(self, served):
        service, _, client = served
        specs = [_spec(), _spec("swim"), _spec(), _spec("swim"), _spec()]
        results = client.run_many(specs)
        stats = client.stats()["stats"]
        assert stats["submitted"] == 5
        assert stats["simulated"] == 2  # two unique specs
        assert stats["deduplicated"] == 3
        # bit-identical to the serial in-process path
        serial = SimService(store=MemoryStore(), backend="inline").run_many(specs)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in serial]
        assert results == serial  # and as SimResult dataclasses

    def test_result_by_content_address(self, served):
        service, _, client = served
        spec = _spec()
        [expected] = client.run_many([spec])
        assert client.result(spec.cache_id) == expected
        with pytest.raises(ServiceClientError) as e:
            client.result("0" * 40)
        assert e.value.status == 404

    def test_batch_status_document(self, served):
        service, _, client = served
        batch = client.submit([_spec(), _spec()])
        doc = client.batch_status(batch["batch"])
        assert doc["batch"] == batch["batch"]
        assert len(doc["jobs"]) == 2
        assert doc["jobs"][0]["id"] == doc["jobs"][1]["id"]  # shared job
        client.results(batch["batch"], timeout=30)

    def test_stream_emits_job_events_then_done(self, served):
        service, _, client = served
        batch = client.submit([_spec(), _spec("swim")])
        events = list(client.stream(batch["batch"], timeout=30))
        assert events[-1]["event"] == "done"
        assert events[-1]["stats"]["simulated"] == 2
        job_events = [e for e in events if e["event"] == "job"]
        assert {e["workload"] for e in job_events} == {"gzip", "swim"}
        assert all(e["state"] == "done" for e in job_events
                   if e is job_events[-1])

    def test_cache_clear_endpoint(self, served):
        service, _, client = served
        client.run_many([_spec()])
        assert client.clear_cache() == (1, 0)
        assert client.clear_cache() == (0, 0)

    def test_error_mapping(self, served):
        service, server, client = served
        # 400: malformed spec document
        with pytest.raises(ServiceClientError) as e:
            client.submit([{"workload": "gzip"}])
        assert e.value.status == 400
        # 400: unknown workload (the documented KeyError)
        with pytest.raises(ServiceClientError) as e:
            client.submit([_spec("quake3")])
        assert e.value.status == 400 and "quake3" in e.value.message
        # 400: body not JSON
        req = urllib.request.Request(server.url + "/v1/batch",
                                     data=b"{oops", method="POST")
        with pytest.raises(urllib.error.HTTPError) as raw:
            urllib.request.urlopen(req, timeout=10)
        assert raw.value.code == 400
        # 404: unknown batch / endpoint
        with pytest.raises(ServiceClientError) as e:
            client.batch_status("b999")
        assert e.value.status == 404
        with pytest.raises(ServiceClientError) as e:
            client._request("GET", "/v2/health")
        assert e.value.status == 404

    def test_admission_maps_to_429(self, monkeypatch):
        entered = threading.Event()
        release = threading.Event()
        real = runner.run_spec

        def gated(spec):
            entered.set()
            assert release.wait(10)
            return real(spec)

        monkeypatch.setattr(runner, "run_spec", gated)
        service = SimService(store=MemoryStore(), jobs=1, backend="thread",
                             max_pending=1)
        service.standup()
        server = ServiceHTTPServer(service, port=0)
        server.start_background()
        client = ServiceClient(server.url, timeout=30)
        try:
            first = client.submit([_spec()])
            assert entered.wait(10)
            with pytest.raises(ServiceClientError) as e:
                client.submit([_spec("swim")])
            assert e.value.status == 429
            release.set()
            client.results(first["batch"], timeout=30)
        finally:
            server.shutdown()
            server.server_close()
            service.teardown()

    def test_phase_violation_maps_to_409(self, served):
        service, _, client = served
        service.phase = "teardown"  # simulate a torn-down service
        try:
            with pytest.raises(ServiceClientError) as e:
                client.submit([_spec()])
            assert e.value.status == 409
        finally:
            service.phase = "run"

    def test_results_timeout_maps_to_408(self, monkeypatch):
        release = threading.Event()
        real = runner.run_spec

        def gated(spec):
            assert release.wait(10)
            return real(spec)

        monkeypatch.setattr(runner, "run_spec", gated)
        service = SimService(store=MemoryStore(), jobs=1, backend="thread")
        service.standup()
        server = ServiceHTTPServer(service, port=0)
        server.start_background()
        client = ServiceClient(server.url, timeout=30)
        try:
            batch = client.submit([_spec()])
            with pytest.raises(ServiceClientError) as e:
                client.results(batch["batch"], timeout=0.05)
            assert e.value.status == 408
            release.set()
            assert len(client.results(batch["batch"], timeout=30)) == 1
        finally:
            server.shutdown()
            server.server_close()
            service.teardown()

    def test_failed_batch_maps_to_500_with_job_detail(self, monkeypatch):
        monkeypatch.setattr(
            runner, "run_spec",
            lambda s: (_ for _ in ()).throw(RuntimeError("injected")),
        )
        service = SimService(store=MemoryStore(), jobs=1, backend="thread")
        service.standup()
        server = ServiceHTTPServer(service, port=0)
        server.start_background()
        client = ServiceClient(server.url, timeout=30)
        try:
            batch = client.submit([_spec()])
            with pytest.raises(ServiceClientError) as e:
                client.results(batch["batch"], timeout=30)
            assert e.value.status == 500
        finally:
            server.shutdown()
            server.server_close()
            service.teardown()

    def test_herd_of_http_clients_costs_one_simulation(self, served):
        service, _, client = served
        spec = _spec("ammp")
        herd_results: list = []

        def one_client():
            herd_results.append(client.run_many([spec, spec])[0])

        threads = [threading.Thread(target=one_client) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        stats = client.stats()["stats"]
        assert stats["simulated"] == 1
        assert stats["submitted"] == 10
        ref = herd_results[0].to_dict()
        assert all(r.to_dict() == ref for r in herd_results)


def _children(pid: int) -> dict[int, str]:
    """``child pid -> start time`` of every live child of ``pid``."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            out[int(name)] = fields[19]
    return out


def _alive(pid: int, start: str) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return False
    return fields[19] == start and fields[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs the Linux /proc process table")
class TestServeProcess:
    def test_sigterm_tears_down_and_joins_workers(self, tmp_path):
        import repro

        port_file = tmp_path / "port"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        with open(tmp_path / "serve.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--jobs", "2",
                 "--port", "0", "--port-file", str(port_file), "--memory-store"],
                env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists():
                assert proc.poll() is None, "repro serve exited early"
                assert time.monotonic() < deadline, "no port file"
                time.sleep(0.05)
            client = ServiceClient(
                f"http://127.0.0.1:{int(port_file.read_text())}", timeout=60)
            client.run_many([_spec("gzip"), _spec("swim")])
            workers = _children(proc.pid)
            assert workers, "the batch should have started pool workers"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        deadline = time.monotonic() + 10
        left = dict(workers)
        while left and time.monotonic() < deadline:
            time.sleep(0.1)
            left = {p: s for p, s in left.items() if _alive(p, s)}
        for pid in left:
            os.kill(pid, signal.SIGKILL)  # do not leak them past the test
        assert not left, f"pool workers outlived the server: {sorted(left)}"

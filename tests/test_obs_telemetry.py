"""The versioned extra["telemetry"] envelope and its legacy aliases."""

from __future__ import annotations

from repro.core.processor import build_processor
from repro.experiments.runner import build_lsq, lsq_spec
from repro.obs.telemetry import TELEMETRY_VERSION, build_extra, get_telemetry
from repro.workloads.registry import make_trace


class TestBuildExtra:
    def test_envelope_and_aliases(self):
        mshr = {"allocations": 3}
        sampling = {"windows": 2}
        extra = build_extra(mshr=mshr, sampling=sampling)
        env = extra["telemetry"]
        assert env["v"] == TELEMETRY_VERSION == 2
        # the legacy top-level keys alias the SAME objects -- a writer
        # updating extra["sampling"] in place stays coherent
        assert extra["mshr"] is env["mshr"]
        assert extra["sampling"] is env["sampling"]
        extra["sampling"]["added_later"] = True
        assert env["sampling"]["added_later"] is True

    def test_sections_optional(self):
        extra = build_extra(mshr={"a": 1})
        assert "sampling" not in extra
        assert "sampling" not in extra["telemetry"]
        assert extra["telemetry"]["mshr"] == {"a": 1}


class TestGetTelemetry:
    def test_reads_the_envelope(self):
        extra = build_extra(mshr={"a": 1})
        assert get_telemetry(extra)["v"] == TELEMETRY_VERSION

    def test_lifts_legacy_extras_as_v0(self):
        legacy = {"mshr": {"a": 1}, "sampling": {"w": 2}}
        env = get_telemetry(legacy)
        assert env["v"] == 0
        assert env["mshr"] == {"a": 1}
        assert env["sampling"] == {"w": 2}

    def test_empty(self):
        assert get_telemetry({})["v"] == 0
        assert get_telemetry(None)["v"] == 0


class TestSimResultTelemetry:
    def test_result_carries_envelope_and_accessor(self):
        pipe = build_processor(build_lsq(lsq_spec("samie")))
        pipe.attach_trace(make_trace("gzip", seed=1))
        result = pipe.run(400, warmup=100)
        env = result.telemetry()
        assert env["v"] == TELEMETRY_VERSION
        assert result.extra["mshr"] is env["mshr"]
        assert "d_allocations" in env["mshr"]

    def test_round_trip_through_to_dict(self):
        from repro.core.pipeline import SimResult

        pipe = build_processor(build_lsq(lsq_spec("samie")))
        pipe.attach_trace(make_trace("gzip", seed=1))
        result = pipe.run(400, warmup=100)
        clone = SimResult.from_dict(result.to_dict())
        assert clone.telemetry()["v"] == TELEMETRY_VERSION
        assert clone.to_dict() == result.to_dict()

    def test_round_trip_keeps_aliases_coherent(self):
        # a loaded result is annotated like a fresh one: the CLI's
        # `trace replay --check-full` detaches a copy, then
        # attach_error writes through the legacy alias
        from repro.core.pipeline import SimResult
        from repro.trace.sampling import attach_error

        pipe = build_processor(build_lsq(lsq_spec("samie")))
        pipe.attach_trace(make_trace("gzip", seed=1))
        result = pipe.run(400, warmup=100)
        result.extra = build_extra(mshr=result.extra["mshr"], sampling={"w": 1})
        clone = SimResult.from_dict(result.to_dict())
        assert clone.extra["mshr"] is clone.telemetry()["mshr"]
        assert clone.to_dict() == result.to_dict()
        err = attach_error(clone, result)
        assert clone.telemetry()["sampling"]["ipc_error_vs_full"] == err == 0.0

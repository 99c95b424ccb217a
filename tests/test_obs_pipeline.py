"""Cycle-level tracing: bit-identity, ring bounds, NDJSON, flush events."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.core.processor import build_processor
from repro.experiments.runner import build_lsq, lsq_spec
from repro.obs.cycletrace import SNAP_FIELDS, CycleTracer
from repro.obs.profile import STAGE_METHODS, wrap_stages
from repro.workloads.registry import make_trace

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "core_bit_identity.json"
)

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


def _build(workload="gzip", **kw):
    pipe = build_processor(build_lsq(lsq_spec("samie", **kw)))
    pipe.attach_trace(make_trace(workload, seed=1))
    return pipe


class TestTracerAttachment:
    def test_untraced_pipeline_has_no_tracer(self):
        assert _build()._ctrace is None

    def test_set_cycle_tracer(self):
        pipe = _build()
        tracer = CycleTracer()
        pipe.set_cycle_tracer(tracer)
        assert pipe._ctrace is tracer

    def test_capacity_and_every_validated(self):
        with pytest.raises(ValueError):
            CycleTracer(capacity=0)
        with pytest.raises(ValueError):
            CycleTracer(every=0)


class TestBitIdentity:
    """A traced run must reproduce the golden snapshots bit-for-bit."""

    @pytest.mark.parametrize("case", ["samie-table3-gzip", "conv128-swim"])
    def test_traced_run_matches_golden(self, case):
        golden = GOLDEN["cases"][case]
        spec = (golden["lsq"][0], tuple((k, v) for k, v in golden["lsq"][1]))
        pipe = build_processor(build_lsq(spec))
        pipe.attach_trace(make_trace(golden["workload"], seed=1))
        pipe.set_cycle_tracer(CycleTracer(every=1))
        result = pipe.run(GOLDEN["instructions"], warmup=GOLDEN["warmup"])
        assert result.to_dict() == golden["result"]


class TestStageWrapping:
    def test_every_stage_is_reached_through_self(self):
        # `repro run --profile` and perfbench's traced run shadow the
        # stage methods per instance: a stage that step() latched or
        # inlined would silently read zero there
        expected = _build("ammp").run(2000)
        pipe = _build("ammp")
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        wrap_stages(pipe, seconds, calls)
        assert pipe.run(2000).to_dict() == expected.to_dict()
        assert all(calls[name] > 0 for name in STAGE_METHODS), calls


class TestRing:
    def test_rows_recorded_per_cycle(self):
        pipe = _build()
        tracer = CycleTracer(every=1)
        pipe.set_cycle_tracer(tracer)
        result = pipe.run(500, warmup=100)
        rows = tracer.rows()
        # one snap per step(): warmup + measured cycles all observed
        assert tracer.snapped == rows[-1]["cycle"] + 1
        assert tracer.snapped >= result.cycles
        assert rows[0]["cycle"] == 0
        assert set(rows[0]) == set(SNAP_FIELDS)
        # committed is monotonic across the retained window
        committed = [r["committed"] for r in rows]
        assert committed == sorted(committed)

    def test_ring_is_bounded_and_counts_evictions(self):
        pipe = _build()
        tracer = CycleTracer(capacity=64, every=1)
        pipe.set_cycle_tracer(tracer)
        pipe.run(500, warmup=100)
        assert len(tracer.rows()) == 64
        assert tracer.dropped == tracer.snapped - 64
        # the ring keeps the *newest* rows
        assert tracer.rows()[-1]["cycle"] == tracer.snapped - 1

    def test_subsampling(self):
        pipe = _build()
        tracer = CycleTracer(every=10)
        pipe.set_cycle_tracer(tracer)
        pipe.run(500, warmup=100)
        assert len(tracer.rows()) == tracer.snapped // 10


class TestEventsAndDump:
    def test_flush_records_an_event(self):
        pipe = _build()
        tracer = CycleTracer()
        pipe.set_cycle_tracer(tracer)
        pipe._flush(reason="deadlock")
        (ev,) = tracer.events()
        assert ev["event"] == "flush"
        assert ev["reason"] == "deadlock"
        assert "restart_seq" in ev and "squashed" in ev

    def test_dump_ndjson_round_trips(self):
        pipe = _build()
        tracer = CycleTracer(every=1)
        pipe.set_cycle_tracer(tracer)
        pipe.run(200, warmup=50)
        tracer.event(pipe.cycle, "flush", reason="deadlock")
        buf = io.StringIO()
        n = tracer.dump_ndjson(buf)
        lines = [json.loads(ln) for ln in buf.getvalue().splitlines()]
        assert len(lines) == n == len(tracer.rows()) + 1
        kinds = {ln["record"] for ln in lines}
        assert kinds == {"cycle", "event"}
        cycle_rows = [ln for ln in lines if ln["record"] == "cycle"]
        assert set(cycle_rows[0]) == {"record", *SNAP_FIELDS}

    def test_summary_reduces_occupancies(self):
        pipe = _build()
        tracer = CycleTracer(every=1)
        pipe.set_cycle_tracer(tracer)
        pipe.run(500, warmup=100)
        s = tracer.summary()
        assert s["rows"] == len(tracer.rows())
        assert s["dropped"] == 0
        assert s["rob"]["max"] >= s["rob"]["mean"] > 0

"""Sampling-accuracy regression: every sampled run warms functionally.

With MSHR miss-merging in the detailed model, functional warming (L1s,
TLBs, predictor -- deliberately not the L2) covers every skipped uop,
and sampled IPC must stay within the ROADMAP's quoted bound (<5%) of the
full-replay IPC on the stationary workloads.  The fast tier checks a representative
stationary trio at test scale; the broad long-trace variant runs behind
``REPRO_FUZZ=1`` like the other slow campaigns.

Phase-noisy profiles (equake's bursty aliasing, gzip's branchy phases)
are excluded from the bound by design -- they need longer traces than
any test tier simulates (see ROADMAP.md "Trace subsystem").
"""

from __future__ import annotations

import pytest

from repro.core.processor import build_processor
from repro.experiments.runner import MACHINE_SAMIE, SimSpec, build_lsq, run_spec
from repro.trace.sampling import SamplePlan, attach_error, run_sampled
from repro.trace.workload import record_trace, spec_name
from repro.workloads.registry import make_trace

#: profiles whose synthetic streams are stationary enough for the bound
STATIONARY_FAST = ("swim", "art", "mgrid")
STATIONARY_SLOW = ("swim", "art", "mgrid", "facerec", "applu", "ammp", "crafty")

BOUND = 0.05  # the ROADMAP's quoted sampling-error bound


def _error(tmp_path, workload: str, n_trace: int) -> float:
    path = str(tmp_path / f"{workload}.uoptrace")
    record_trace(path, workload, n_trace)
    name = spec_name(path)
    full = run_spec(SimSpec.make(name, MACHINE_SAMIE, n_trace - 3000, 2000))
    plan = SamplePlan.from_ratio(0.1)  # defaults: 10000/3000/1000, warming on
    sampled = run_spec(SimSpec.make(name, MACHINE_SAMIE, n_trace, 0,
                                    sample=plan.key()))
    return attach_error(sampled, full)


class TestWarmingDefault:
    def test_run_sampled_warms_by_default(self, tmp_path):
        # every skipped uop is warmed: the warm count is exactly the
        # source uops consumed minus those the stream handed to fetch
        path = str(tmp_path / "swim.uoptrace")
        record_trace(path, "swim", 40000)
        pipe = build_processor(build_lsq(MACHINE_SAMIE[1]), None)
        res = run_sampled(pipe, make_trace(spec_name(path)),
                          SamplePlan(10000, 2000, 1000))
        stream = pipe._trace  # the SampledStream run_sampled attached
        sampling = res.telemetry()["sampling"]
        assert sampling["source_uops_consumed"] == stream.consumed
        assert sampling["warm"]["uops"] == stream.consumed - stream.yielded
        assert sampling["warm"]["uops"] >= 3 * (10000 - 3000)  # three gaps

    def test_warming_does_not_leak_inflight_state(self, tmp_path):
        # after a warmed gap, no MSHR entries may be outstanding beyond
        # what the detailed windows themselves created
        path = str(tmp_path / "art.uoptrace")
        record_trace(path, "art", 30000)
        pipe = build_processor(build_lsq(MACHINE_SAMIE[1]), None)
        run_sampled(pipe, make_trace(spec_name(path)), SamplePlan(10000, 2000, 1000))
        mshr = pipe.mem.dmshr
        assert len(mshr) <= mshr.entries


class TestSamplingAccuracy:
    @pytest.mark.parametrize("workload", STATIONARY_FAST)
    def test_error_within_bound_at_test_scale(self, tmp_path, workload):
        err = _error(tmp_path, workload, 60000)
        assert err < BOUND, f"{workload}: sampling error {err:.1%} vs full"

    @pytest.mark.slow_fuzz
    @pytest.mark.parametrize("workload", STATIONARY_SLOW)
    def test_error_within_bound_long_traces(self, tmp_path, workload):
        err = _error(tmp_path, workload, 120000)
        assert err < BOUND, f"{workload}: sampling error {err:.1%} vs full"

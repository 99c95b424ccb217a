"""Trace subsystem benchmarks: record/replay throughput and sampling.

Three measurements (pytest-benchmark, like the artefact benches):

* ``test_bench_record_throughput`` -- uops/s writing a synthetic
  workload's stream to a ``.uoptrace`` file.
* ``test_bench_replay_vs_live`` -- uops/s reading a recorded trace back,
  with the live ``TraceBuilder`` generation rate measured alongside for
  the comparison the trace subsystem exists to win (replay skips all
  pattern/RNG work).
* ``test_bench_sampled_speedup`` -- end-to-end sampled replay vs full
  replay of the same trace through the pipeline, reporting the measured
  wall-clock speedup and the IPC error.

Scale via ``REPRO_TRACE_BENCH_UOPS`` (default 200k for the throughput
benches) and ``REPRO_TRACE_BENCH_SIM`` (default 40k for the simulation
bench).
"""

from __future__ import annotations

import itertools
import os
import time

from repro.core.processor import build_processor
from repro.experiments.runner import MACHINE_SAMIE, build_lsq
from repro.trace.format import TraceStream
from repro.trace.sampling import SamplePlan, attach_error, run_sampled
from repro.trace.workload import record_trace, spec_name
from repro.workloads.registry import make_trace

BENCH_UOPS = int(os.environ.get("REPRO_TRACE_BENCH_UOPS", 200_000))
BENCH_SIM = int(os.environ.get("REPRO_TRACE_BENCH_SIM", 40_000))
WORKLOAD = "swim"


def test_bench_record_throughput(benchmark, tmp_path):
    path = str(tmp_path / "bench.uoptrace")

    def record():
        return record_trace(path, WORKLOAD, BENCH_UOPS)

    info = benchmark.pedantic(record, rounds=1, iterations=1, warmup_rounds=0)
    elapsed = benchmark.stats.stats.mean
    benchmark.extra_info.update({
        "uops": info.count,
        "uops_per_s": round(info.count / elapsed),
        "file_bytes": info.file_bytes,
        "bytes_per_record": round(info.file_bytes / info.count, 2),
    })


def test_bench_replay_vs_live(benchmark, tmp_path):
    path = str(tmp_path / "bench.uoptrace")
    record_trace(path, WORKLOAD, BENCH_UOPS)

    t0 = time.perf_counter()
    live_n = sum(1 for _ in itertools.islice(make_trace(WORKLOAD), BENCH_UOPS))
    live_elapsed = time.perf_counter() - t0

    def replay():
        with TraceStream(path) as r:
            return sum(1 for _ in r)

    n = benchmark.pedantic(replay, rounds=1, iterations=1, warmup_rounds=0)
    assert n == live_n == BENCH_UOPS
    replay_elapsed = benchmark.stats.stats.mean
    benchmark.extra_info.update({
        "replay_uops_per_s": round(n / replay_elapsed),
        "live_uops_per_s": round(live_n / live_elapsed),
        "replay_speedup_vs_live": round(live_elapsed / replay_elapsed, 2),
    })


def test_bench_sampled_speedup(benchmark, tmp_path):
    path = str(tmp_path / "bench.uoptrace")
    record_trace(path, WORKLOAD, BENCH_SIM)
    name = spec_name(path)

    t0 = time.perf_counter()
    pipe = build_processor(build_lsq(MACHINE_SAMIE[1]), None)
    pipe.attach_trace(make_trace(name))
    full = pipe.run(BENCH_SIM - 3000, warmup=2000)
    full_elapsed = time.perf_counter() - t0

    plan = SamplePlan.from_ratio(0.1)

    def sampled():
        pipe = build_processor(build_lsq(MACHINE_SAMIE[1]), None)
        return run_sampled(pipe, make_trace(name), plan)

    res = benchmark.pedantic(sampled, rounds=1, iterations=1, warmup_rounds=0)
    err = attach_error(res, full)
    s = res.telemetry()["sampling"]
    benchmark.extra_info.update({
        "full_ipc": round(full.ipc, 4),
        "sampled_ipc": round(res.ipc, 4),
        "ipc_error_pct": round(err * 100, 2),
        "wallclock_speedup": round(full_elapsed / benchmark.stats.stats.mean, 2),
        "measured_fraction": round(s["measured_instructions"] / max(full.instructions, 1), 3),
        "windows": s["windows"],
    })

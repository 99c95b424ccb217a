#!/usr/bin/env python
"""Trace subsystem tour: record, replay, ingest a Spike log, sample.

Run:  python examples/trace_replay.py [workload] [uops]

Four steps (all files go to a temporary directory):

1. record ``uops`` records of a synthetic workload to a ``.uoptrace``
   file and print the container summary;
2. replay it through the pipeline and show the result is bit-identical
   to the live generator run;
3. ingest the bundled Spike commit-log fixture (riscv-pythia format)
   into a trace and simulate it -- a *real-program* address stream
   through the SAMIE-LSQ;
4. replay the recorded trace with 10% systematic sampling and compare
   the sampled IPC against the full replay.
"""

import sys
import tempfile
import time
from pathlib import Path

from repro import build_processor, make_lsq
from repro.trace import (
    SamplePlan,
    attach_error,
    ingest_spike_log,
    read_info,
    record_trace,
    run_sampled,
)
from repro.trace.workload import fixture_path, recommended_uops, spec_name
from repro.workloads import make_trace


def simulate(workload: str, n: int, warmup: int):
    pipe = build_processor(make_lsq("samie"))
    pipe.attach_trace(make_trace(workload))
    return pipe.run(n, warmup=warmup)


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "swim"
    uops = int(sys.argv[2]) if len(sys.argv) > 2 else 60_000
    n, warmup = uops - recommended_uops(0, 0), 2_000
    tmp = Path(tempfile.mkdtemp(prefix="uoptrace-"))

    # 1. record
    path = str(tmp / f"{workload}.uoptrace")
    info = record_trace(path, workload, uops)
    print(f"== recorded {workload} ==")
    print(info.describe(), "\n")

    # 2. replay == live
    live = simulate(workload, n - warmup, warmup)
    replay = simulate(spec_name(path), n - warmup, warmup)
    same = live.to_dict() == replay.to_dict()
    print(f"== replay vs live ==\nipc {replay.ipc:.4f} vs {live.ipc:.4f} "
          f"-> bit-identical: {same}\n")

    # 3. ingest the bundled Spike commit log
    spike_out = str(tmp / "vvadd.uoptrace")
    sinfo, stats = ingest_spike_log(fixture_path(), spike_out)
    res = simulate(spec_name(spike_out), sinfo.count, 0)
    print("== spike ingest (bundled vvadd fixture) ==")
    print(stats.describe())
    print(f"replayed {res.instructions} instructions, ipc={res.ipc:.3f}, "
          f"l1d_miss={res.l1d_miss_rate:.3f}\n")

    # 4. sampled replay
    plan = SamplePlan.from_ratio(0.10)
    t0 = time.perf_counter()
    pipe = build_processor(make_lsq("samie"))
    sampled = run_sampled(pipe, make_trace(spec_name(path)), plan)
    dt = time.perf_counter() - t0
    err = attach_error(sampled, live)
    s = sampled.telemetry()["sampling"]
    print(f"== sampled replay (ratio {plan.ratio:.0%}, plan "
          f"{plan.period}/{plan.warmup}/{plan.measure}) ==")
    print(f"windows={s['windows']} measured={s['measured_instructions']} "
          f"(full run measured {live.instructions})")
    print(f"sampled ipc={sampled.ipc:.4f} vs full {live.ipc:.4f} "
          f"-> error {err:.1%} in {dt:.1f}s")
    print(f"\ntraces kept in {tmp}")
    print(read_info(path).digest)


if __name__ == "__main__":
    main()

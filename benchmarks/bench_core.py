#!/usr/bin/env python
"""Core-simulator throughput benchmark: the repo's recorded perf trajectory.

Measures detailed-model simulation speed (committed uops per wall-clock
second) for each LSQ kind across a set of workloads at test scale, plus a
cycle-loop stage breakdown and a sampled-replay section (one cell per
warm engine over a recorded trace at a SMARTS-regime plan), and emits a
machine-readable ``BENCH_core.json`` so every PR lands on a recorded
perf baseline.

To refresh the committed baseline after an intentional perf change::

    PYTHONPATH=src python benchmarks/bench_core.py -o BENCH_core.json \
        --repeat 5 --breakdown

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py                 # measure
    PYTHONPATH=src python benchmarks/bench_core.py -o out.json     # custom path
    PYTHONPATH=src python benchmarks/bench_core.py \
        --baseline BENCH_core.json --tolerance 0.2                 # CI gate

With ``--baseline`` the freshly measured throughput is compared per
(lsq, workload) cell against the committed baseline file; any cell slower
than ``baseline * (1 - tolerance)`` fails the run (exit 1).  Comparisons
are *host-normalized*: every document records a ``host_score`` (a fixed
pure-Python calibration kernel, iterations/sec), and cells are compared
as ``uops_per_sec / host_score``, so a slower CI runner or a noisy
neighbour shifts both sides and cancels out.  The default tolerance
(20%) absorbs the residual jitter; the committed baseline is refreshed
whenever a PR intentionally moves the numbers (see ROADMAP.md
"Performance").

Scale knobs: ``--instructions`` / ``--warmup`` (default 6000/1000) and
``--repeat`` (best-of-N wall time, default 3).  The simulation results
themselves are deterministic; only the wall time varies between repeats.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from repro.core.processor import build_processor
from repro.experiments.runner import build_lsq, lsq_spec
from repro.obs.profile import STAGE_METHODS, wrap_stages
from repro.workloads.registry import make_trace

#: the measured grid: every LSQ kind the paper evaluates
MACHINES = [
    lsq_spec("conventional", capacity=128),
    lsq_spec("samie"),
    lsq_spec("arb", banks=8, addresses_per_bank=16, max_inflight=128),
]

DEFAULT_WORKLOADS = ["gzip", "swim", "mcf"]

def host_score(repeat: int = 5, iterations: int = 200_000) -> float:
    """Interpreter-speed calibration: iterations/sec of a fixed kernel.

    The kernel mixes the operations the simulator's cycle loop lives on
    (dict stores/lookups, integer arithmetic, attribute-free loop
    control), so its speed tracks how fast *this host* runs the
    simulator -- the perf gate compares ``uops_per_sec / host_score``.
    """
    def kernel(n: int) -> int:
        d: dict[int, int] = {}
        s = 0
        for i in range(n):
            d[i & 255] = i
            s += d.get((i * 7) & 255, 0)
        return s

    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        kernel(iterations)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return iterations / best


def _run_once(spec, workload: str, n: int, warmup: int, seed: int = 1):
    """One timed simulation; returns (seconds, SimResult)."""
    pipe = build_processor(build_lsq(spec))
    pipe.attach_trace(make_trace(workload, seed))
    t0 = time.perf_counter()
    result = pipe.run(n, warmup=warmup)
    return time.perf_counter() - t0, result


def _stage_breakdown(spec, workload: str, n: int, warmup: int, seed: int = 1):
    """Wall time per pipeline stage (wrapping slows the run; relative only).

    Stage wrapping lives in :mod:`repro.obs.profile` (the ``repro run
    --profile`` machinery); this keeps the bench's JSON schema.
    """
    pipe = build_processor(build_lsq(spec))
    pipe.attach_trace(make_trace(workload, seed))
    acc: dict[str, float] = {}
    wrap_stages(pipe, acc)
    t0 = time.perf_counter()
    pipe.run(n, warmup=warmup)
    total = time.perf_counter() - t0
    acc["other"] = max(0.0, total - sum(acc.values()))
    return {k: round(v / total, 4) for k, v in acc.items()} if total else acc


#: sampled-replay throughput cells: SMARTS-regime plan on a recorded
#: trace, one cell per warm engine.  The period is deliberately long
#: (1.5% simulated in detail) -- that is the regime sampling exists for,
#: and the regime where the warm engine dominates wall time; at dense
#: plans the detailed windows dominate and the engines converge.
SAMPLED_PLAN = (100_000, 1_000, 500)
SAMPLED_TRACE_UOPS = 400_000


def _sampled_section(repeat: int) -> list[dict]:
    """Sampled-replay cells (lsq="samie", workload="sampled-<variant>").

    Throughput is *source uops consumed per second* -- skipped uops are
    real work for the warm engine, so this is the end-to-end number a
    sampled sweep experiences.  Cells share the detailed grid's schema,
    so ``check_against`` gates them like any other cell.

    Variants: ``sampled-scalar``/``sampled-vector`` isolate the warm
    engine with event skipping off; ``sampled-skip`` is the shipping
    configuration (best engine + event-driven cycle skipping in the
    detailed windows).  Both axes are bit-identical by contract, so all
    three cells report the same ipc/cycles.
    """
    import os
    import tempfile

    from repro.trace.sampling import SamplePlan, run_sampled
    from repro.trace.workload import record_trace, spec_name

    spec = lsq_spec("samie")
    plan = SamplePlan(*SAMPLED_PLAN)
    variants = [("sampled-scalar", "scalar", False)]
    try:
        import numpy  # noqa: F401

        best_engine = "vector"
        variants.append(("sampled-vector", "vector", False))
    except ImportError:  # pragma: no cover - numpy is a test-tier dep
        best_engine = "scalar"
        print("numpy unavailable: skipping the sampled-vector cell")
    variants.append(("sampled-skip", best_engine, True))
    results = []
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "swim.uoptrace")
        record_trace(path, "swim", SAMPLED_TRACE_UOPS)
        name = spec_name(path)
        for cell_name, eng, skip in variants:
            best = None
            sim = None
            for _ in range(repeat):
                pipe = build_processor(build_lsq(spec))
                pipe.event_skip = skip
                t0 = time.perf_counter()
                sim = run_sampled(pipe, make_trace(name), plan,
                                  warm_engine=eng)
                secs = time.perf_counter() - t0
                best = secs if best is None else min(best, secs)
            consumed = sim.extra["sampling"]["source_uops_consumed"]
            cell = {
                "lsq": spec[0],
                "workload": cell_name,
                "seconds": round(best, 6),
                "instructions": sim.instructions,
                "cycles": sim.cycles,
                "ipc": round(sim.ipc, 6),
                "uops_per_sec": round(consumed / best, 1),
                "cycles_per_sec": round(sim.cycles / best, 1),
            }
            results.append(cell)
            print(
                f"{spec[0]:14s} {cell['workload']:14s} "
                f"{cell['uops_per_sec']:>10.0f} uops/s  ipc={sim.ipc:.3f}",
                flush=True,
            )
    by_name = {c["workload"]: c["uops_per_sec"] for c in results}
    if "sampled-vector" in by_name:
        ratio = by_name["sampled-vector"] / by_name["sampled-scalar"]
        print(f"sampled vector/scalar speedup: {ratio:.2f}x")
    base = by_name.get("sampled-vector", by_name["sampled-scalar"])
    print(f"sampled event-skip speedup: {by_name['sampled-skip'] / base:.2f}x")
    return results


def measure(workloads, n: int, warmup: int, repeat: int, breakdown: bool):
    """Measure the full grid; returns the BENCH_core document."""
    results = []
    for spec in MACHINES:
        kind = spec[0]
        for workload in workloads:
            best = None
            sim = None
            for _ in range(repeat):
                secs, sim = _run_once(spec, workload, n, warmup)
                best = secs if best is None else min(best, secs)
            uops = sim.instructions + warmup  # total committed, incl. warmup
            cell = {
                "lsq": kind,
                "workload": workload,
                "seconds": round(best, 6),
                "instructions": sim.instructions,
                "cycles": sim.cycles,
                "ipc": round(sim.ipc, 6),
                "uops_per_sec": round(uops / best, 1),
                "cycles_per_sec": round(sim.cycles / best, 1),
            }
            results.append(cell)
            print(
                f"{kind:14s} {workload:8s} {cell['uops_per_sec']:>10.0f} uops/s"
                f" {cell['cycles_per_sec']:>10.0f} cyc/s  ipc={sim.ipc:.3f}",
                flush=True,
            )
    results.extend(_sampled_section(repeat))
    # record the sampled-run speedups alongside the raw cells: the
    # shipping configuration (sampled-skip) against the same-commit
    # scalar reference baseline, plus each axis in isolation
    sampled = {
        c["workload"]: c["uops_per_sec"]
        for c in results
        if c["workload"].startswith("sampled-")
    }
    speedups = {
        "skip_over_scalar": round(
            sampled["sampled-skip"] / sampled["sampled-scalar"], 3
        ),
    }
    if "sampled-vector" in sampled:
        speedups["vector_over_scalar"] = round(
            sampled["sampled-vector"] / sampled["sampled-scalar"], 3
        )
        speedups["skip_over_vector"] = round(
            sampled["sampled-skip"] / sampled["sampled-vector"], 3
        )
    score = host_score()
    doc = {
        "meta": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "instructions": n,
            "warmup": warmup,
            "repeat": repeat,
            "sampled_plan": list(SAMPLED_PLAN),
            "sampled_trace_uops": SAMPLED_TRACE_UOPS,
            "sampled_speedups": speedups,
            "host_score": round(score, 1),
        },
        "results": results,
    }
    print(f"host calibration: {score:.0f} kernel iters/s")
    if breakdown:
        doc["cycle_loop_breakdown"] = {
            spec[0]: _stage_breakdown(spec, workloads[0], n, warmup)
            for spec in MACHINES
        }
    return doc


def check_against(doc: dict, baseline: dict, tolerance: float) -> list[str]:
    """Regressed cells vs a baseline document (empty list = pass).

    When both documents carry a ``host_score`` the comparison is made on
    host-normalized throughput (``uops_per_sec / host_score``), so the
    gate measures the *code*, not the runner it happened to land on.
    """
    cur_score = doc.get("meta", {}).get("host_score")
    base_score = baseline.get("meta", {}).get("host_score")
    normalize = bool(cur_score and base_score)
    base = {
        (c["lsq"], c["workload"]): c["uops_per_sec"] for c in baseline["results"]
    }
    failures = []
    for cell in doc["results"]:
        key = (cell["lsq"], cell["workload"])
        ref = base.get(key)
        if ref is None:
            continue
        cur = cell["uops_per_sec"]
        if normalize:
            cur /= cur_score
            ref /= base_score
            unit = "uops/kernel-iter"
        else:
            unit = "uops/s"
        floor = ref * (1.0 - tolerance)
        if cur < floor:
            failures.append(
                f"{key[0]}/{key[1]}: {cur:.4g} {unit} < floor {floor:.4g} "
                f"(baseline {ref:.4g}, tolerance {tolerance:.0%})"
            )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--out", default="BENCH_core.json",
                    help="output JSON path (default: %(default)s)")
    ap.add_argument("--workloads", nargs="+", default=DEFAULT_WORKLOADS)
    ap.add_argument("--instructions", type=int, default=6000)
    ap.add_argument("--warmup", type=int, default=1000)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--breakdown", action="store_true",
                    help="also record a per-stage cycle-loop time breakdown")
    ap.add_argument("--baseline", metavar="PATH",
                    help="compare against this BENCH_core.json; exit 1 on "
                         "regression beyond --tolerance")
    ap.add_argument("--tolerance", type=float, default=0.2,
                    help="allowed fractional uops/sec regression vs the "
                         "baseline (default: %(default)s)")
    args = ap.parse_args(argv)

    doc = measure(args.workloads, args.instructions, args.warmup,
                  args.repeat, args.breakdown)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        failures = check_against(doc, baseline, args.tolerance)
        if failures:
            for f in failures:
                print(f"PERF REGRESSION: {f}", file=sys.stderr)
            return 1
        print(f"perf gate ok (tolerance {args.tolerance:.0%} vs {args.baseline})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Ablation: SharedLSQ size 0..16 (paper section 3.5 / Figure 4 choice)."""

from repro.experiments.runner import SimSpec, jobs_from_env, lsq_spec, run_many
from repro.service.session import SimService
from repro.service.store import CacheConfig

WORKLOADS = ["ammp", "apsi", "gzip"]
SIZES = [0, 4, 8, 16]


def sweep():
    machines = [
        (f"samie-shared{shared}", lsq_spec("samie", shared_entries=shared))
        for shared in SIZES
    ]
    specs = [SimSpec.make(w, m, seed=1) for m in machines for w in WORKLOADS]
    # a store-less session: the bench times simulation, not store reads
    session = SimService(cache=CacheConfig(backend="off"))
    results = run_many(specs, jobs=jobs_from_env(), session=session)
    return [
        (int(s.machine_key.removeprefix("samie-shared")), s.workload, r.ipc,
         1e6 * r.deadlock_flushes / r.cycles, r.addr_buffer_busy_frac)
        for s, r in zip(specs, results)
    ]


def test_ablation_shared(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(f"{'shared':>6} {'bench':>6} {'ipc':>6} {'dead/Mc':>8} {'abBusy':>7}")
    for s, w, ipc, dead, ab in rows:
        print(f"{s:>6} {w:>6} {ipc:>6.2f} {dead:>8.0f} {ab:>7.3f}")
    by = {(s, w): (ipc, dead, ab) for s, w, ipc, dead, ab in rows}
    # a bigger SharedLSQ rescues the pressure benches
    assert by[(16, "ammp")][0] >= by[(0, "ammp")][0]
    assert by[(16, "ammp")][1] <= by[(0, "ammp")][1]
    # and nearly irrelevant for integer code (<10% IPC effect)
    assert abs(by[(16, "gzip")][0] - by[(0, "gzip")][0]) < 0.1 * by[(16, "gzip")][0]

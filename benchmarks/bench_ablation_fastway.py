"""Ablation: exploit the lower known-way access time (paper future work).

Section 3.6/Table 1 show that accesses with a known physical line are
faster, but the paper's evaluation deliberately does not exploit it.
This bench enables a 1-cycle known-way L1 hit and measures the IPC gain
left on the table.
"""

from repro.core.config import ProcessorConfig
from repro.experiments.runner import MACHINE_SAMIE, SimSpec, jobs_from_env, run_many
from repro.mem.hierarchy import MemConfig
from repro.service.session import SimService
from repro.service.store import CacheConfig

WORKLOADS = ["swim", "art", "gzip", "mcf"]


def sweep():
    fast_cfg = ProcessorConfig(mem=MemConfig(fast_way_hit_latency=1))
    fast_machine = ("samie-fastway", MACHINE_SAMIE[1])
    specs = [SimSpec.make(w, MACHINE_SAMIE, seed=1) for w in WORKLOADS]
    specs += [SimSpec.make(w, fast_machine, seed=1, cfg=fast_cfg) for w in WORKLOADS]
    # a store-less session: the bench times simulation, not store reads
    session = SimService(cache=CacheConfig(backend="off"))
    results = run_many(specs, jobs=jobs_from_env(), session=session)
    base, fast = results[: len(WORKLOADS)], results[len(WORKLOADS):]
    return [
        (w, b.ipc, f.ipc, 100.0 * (f.ipc / b.ipc - 1.0))
        for w, b, f in zip(WORKLOADS, base, fast)
    ]


def test_ablation_fastway(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(f"{'bench':>6} {'ipc':>6} {'ipc_fast':>8} {'gain_%':>7}")
    for w, a, b, g in rows:
        print(f"{w:>6} {a:>6.2f} {b:>8.2f} {g:>7.2f}")
    # the fast path never hurts
    assert all(g >= -1.0 for _, _, _, g in rows)

"""Ablation: DistribLSQ geometry (banks x entries/bank), section 3.5."""

from repro.experiments.runner import SimSpec, jobs_from_env, lsq_spec, run_many
from repro.service.session import SimService
from repro.service.store import CacheConfig

WORKLOADS = ["ammp", "swim", "gcc"]
GEOMETRIES = [(16, 8), (32, 4), (64, 2), (128, 1)]


def sweep():
    machines = [
        (f"samie-{banks}x{entries}", lsq_spec("samie", banks=banks, entries_per_bank=entries))
        for banks, entries in GEOMETRIES
    ]
    specs = [SimSpec.make(w, m, seed=1) for m in machines for w in WORKLOADS]
    # a store-less session: the bench times simulation, not store reads
    session = SimService(cache=CacheConfig(backend="off"))
    results = run_many(specs, jobs=jobs_from_env(), session=session)
    rows = []
    for s, r in zip(specs, results):
        comparisons = r.lsq_stats["addr_comparisons"]
        rows.append((s.machine_key.removeprefix("samie-"), s.workload, r.ipc,
                     comparisons / max(1, r.lsq_stats["placed"]),
                     1e6 * r.deadlock_flushes / r.cycles))
    return rows


def test_ablation_banks(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(f"{'geom':>7} {'bench':>6} {'ipc':>6} {'cmp/place':>9} {'dead/Mc':>8}")
    for geom, w, ipc, cmp_pp, dead in rows:
        print(f"{geom:>7} {w:>6} {ipc:>6.2f} {cmp_pp:>9.2f} {dead:>8.0f}")
    by = {(g, w): (ipc, cmp_pp, dead) for g, w, ipc, cmp_pp, dead in rows}
    # the section 3.5 finding: 128x1 is *too* banked -- single-entry banks
    # push streams into the SharedLSQ, whose occupancy every placement
    # must be compared against, so comparisons per placement blow up
    assert by[("128x1", "swim")][1] > by[("64x2", "swim")][1]
    # while a moderately banked design keeps comparisons small
    assert by[("64x2", "gcc")][1] < 4.0

"""Ablation: slots per SAMIE entry (paper section 3.5 design discussion).

More slots per entry capture more same-line sharing (cheaper D-cache/TLB)
but cost leakage area; fewer slots push sharing pressure into extra
entries.  The paper picks 8.
"""

from repro.experiments.runner import SimSpec, jobs_from_env, lsq_spec, run_many
from repro.service.session import SimService
from repro.service.store import CacheConfig

WORKLOADS = ["swim", "gzip", "ammp"]
SLOTS = [2, 4, 8, 16]


def sweep():
    machines = [
        (f"samie-slots{slots}", lsq_spec("samie", slots_per_entry=slots))
        for slots in SLOTS
    ]
    specs = [SimSpec.make(w, m, seed=1) for m in machines for w in WORKLOADS]
    # a store-less session: the bench times simulation, not store reads
    session = SimService(cache=CacheConfig(backend="off"))
    results = run_many(specs, jobs=jobs_from_env(), session=session)
    return [
        (int(s.machine_key.removeprefix("samie-slots")), s.workload, r.ipc,
         sum(r.lsq_energy_pj.values()) / r.instructions,
         r.lsq_stats["way_known_accesses"],
         sum(r.area_um2_cycles.values()) / r.cycles)
        for s, r in zip(specs, results)
    ]


def test_ablation_slots(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(f"{'slots':>5} {'bench':>8} {'ipc':>6} {'lsq pJ/i':>9} {'way_known':>9} {'area um2':>10}")
    for slots, w, ipc, pj, wk, area in rows:
        print(f"{slots:>5} {w:>8} {ipc:>6.2f} {pj:>9.1f} {wk:>9} {area:>10.0f}")
    by = {(s, w): (ipc, pj, wk, area) for s, w, ipc, pj, wk, area in rows}
    # streaming code exploits more slots (way-known accesses grow with slots)
    assert by[(8, "swim")][2] > by[(2, "swim")][2]
    # and the leakage-area price of more slots is monotone for idle code
    assert by[(16, "gzip")][3] > by[(2, "gzip")][3]

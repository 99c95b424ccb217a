#!/usr/bin/env python
"""Scenario tour: phase switching and SMT interleaving through the service.

Run:  PYTHONPATH=src python examples/scenario_tour.py

Walks the declarative scenario catalog end to end:

1. compiles a *phase-switching* scenario (``phase_ping_pong``) and shows
   its exact, deterministic switch points;
2. composes an *inline* scenario (JSON, no catalog entry) and shows it
   canonicalises to the same cache identity as the equivalent catalog
   entry -- the named/inline split never duplicates cache entries;
3. submits a phase-switching and an interleaved scenario
   (``smt_mix``) through a live ``SimService`` over HTTP -- scenario
   specs ride the wire like any workload name -- and checks the results
   are bit-identical to a plain in-process ``run_many``;
4. prints the per-phase consumption report a sampled scenario run
   attaches under ``extra["sampling"]["phases"]``.

Exit code 0 means every determinism/identity guarantee held.
"""

import json
import sys

from repro.experiments.runner import MACHINE_SAMIE, SimSpec, run_spec
from repro.scenarios import (
    canonical_scenario_name,
    get_scenario,
    scenario_stream,
)
from repro.service import CacheConfig, ServiceClient, ServiceHTTPServer, SimService

INSTRUCTIONS, WARMUP = 4_000, 500


def show_phase_switching() -> None:
    scn = get_scenario("phase_ping_pong")
    print(f"== {scn.name}: {scn.note}")
    stream = scenario_stream("scenario:phase_ping_pong", seed=1)
    stream.take(8000)
    print(f"   switch points (seq, program, phase): {stream.switch_points()}")
    again = scenario_stream("scenario:phase_ping_pong", seed=1)
    assert [u.as_tuple() for u in scenario_stream(
        "scenario:phase_ping_pong", seed=1).take(2000)] == \
        [u.as_tuple() for u in again.take(2000)], "stream not deterministic"
    print("   first 2000 uops bit-identical across two compilations\n")


def show_inline_identity() -> None:
    inline = "scenario:" + json.dumps({
        "programs": [{"schedule": "loop", "phases": [
            {"stressor": "aliasing_storm", "length": 2500},
            {"stressor": "pointer_chase", "length": 2500},
        ]}],
    })
    named = canonical_scenario_name("scenario:phase_ping_pong")
    assert canonical_scenario_name(inline) == named, "identity split!"
    print("== inline JSON == catalog name, one cache identity:")
    print(f"   {named[:100]}...\n")


def main() -> int:
    show_phase_switching()
    show_inline_identity()

    names = ["phase_ping_pong", "smt_mix"]
    specs = [
        SimSpec.make(f"scenario:{n}", MACHINE_SAMIE, INSTRUCTIONS, WARMUP)
        for n in names
    ]

    # reference: plain in-process runs
    reference = [run_spec(s) for s in specs]

    with SimService(cache=CacheConfig(backend="memory"),
                    jobs=2, backend="thread") as service:
        server = ServiceHTTPServer(service, port=0)
        server.start_background()
        try:
            client = ServiceClient(server.url)
            print(f"== service up at {server.url}; submitting scenarios")
            batch = client.submit(specs)
            results = client.results(batch["batch"], timeout=300)
        finally:
            server.shutdown()
            server.server_close()

    for tag, served, ref in zip(names, results, reference):
        same = (served.instructions == ref.instructions
                and served.cycles == ref.cycles
                and served.ipc == ref.ipc)
        print(f"   {tag:<20} ipc={served.ipc:.3f} "
              f"cycles={served.cycles} bit-identical={same}")
        assert same, "service result diverged from in-process run"

    # sampled run: phases advance through warm-up gaps too
    sampled = run_spec(SimSpec.make(
        "scenario:phase_ping_pong", MACHINE_SAMIE, 3000, 0,
        sample=(2000, 300, 500)))
    phases = sampled.telemetry()["sampling"]["phases"]
    print(f"\n== sampled phase report: consumed={phases['consumed']} "
          f"switches={phases['switches']}")
    assert phases["switches"] >= 1, "sampled run never switched phase"
    print("\nscenario tour: all guarantees held")
    return 0


if __name__ == "__main__":
    sys.exit(main())

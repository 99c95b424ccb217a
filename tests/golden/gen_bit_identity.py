"""Regenerate both golden files.

* ``core_bit_identity.json`` pins the *pre-refactor* simulator
  semantics: full ``SimResult.to_dict()`` snapshots (cycles, energy
  picojoules, area um^2-cycles, every stat counter -- floats compared
  exactly) for each LSQ model across representative geometries and
  workloads at test scale.  The hot-path-optimized simulator must
  reproduce them bit-for-bit (``tests/test_bit_identity.py``).
* ``artefacts.json`` pins every paper artefact: each ``ARTEFACTS``
  entry's ``FigureResult.to_dict()`` at 300/100 with its default
  workloads and points, key order kept (``tests/test_experiments.py``),
  so a changed formula or aggregation shows as a diff.

Only regenerate after an *intentional* semantic change, in the same
commit that explains why:

    PYTHONPATH=src python tests/golden/gen_bit_identity.py
"""

from __future__ import annotations

import json
import os

from repro.core.config import ProcessorConfig
from repro.core.processor import build_processor
from repro.experiments.artefacts import ARTEFACTS
from repro.experiments.runner import build_lsq, lsq_spec
from repro.service.session import SimService
from repro.service.store import CacheConfig
from repro.workloads.registry import make_trace

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "core_bit_identity.json")
ARTEFACTS_PATH = os.path.join(os.path.dirname(__file__), "artefacts.json")

INSTRUCTIONS = 3000
WARMUP = 500

#: (case name, lsq_spec kwargs) -- covers all three models plus the SAMIE
#: corner geometries the verify grid exercises (shared=None, tiny AddrBuffer)
CASES = [
    ("conv128-gzip", "gzip", lsq_spec("conventional", capacity=128)),
    ("conv128-swim", "swim", lsq_spec("conventional", capacity=128)),
    ("conv16-mcf", "mcf", lsq_spec("conventional", capacity=16)),
    ("samie-table3-gzip", "gzip", lsq_spec("samie")),
    ("samie-table3-swim", "swim", lsq_spec("samie")),
    ("samie-noshared-mcf", "mcf",
     lsq_spec("samie", banks=8, entries_per_bank=2, slots_per_entry=2,
              shared_entries=None, addr_buffer_slots=8, l1d_sets=64)),
    ("samie-abtiny-gzip", "gzip",
     lsq_spec("samie", banks=16, entries_per_bank=2, slots_per_entry=2,
              shared_entries=2, addr_buffer_slots=4, l1d_sets=64)),
    ("arb-8x16-swim", "swim",
     lsq_spec("arb", banks=8, addresses_per_bank=16, max_inflight=128)),
    ("arb-2x4-gzip", "gzip",
     lsq_spec("arb", banks=2, addresses_per_bank=4, max_inflight=32)),
    ("samie-trackdata-gzip", "gzip", lsq_spec("samie")),
]


def run_case(workload: str, spec, track_data: bool) -> dict:
    cfg = ProcessorConfig(track_data=True) if track_data else None
    pipe = build_processor(build_lsq(spec), cfg)
    pipe.attach_trace(make_trace(workload, seed=1))
    result = pipe.run(INSTRUCTIONS, warmup=WARMUP)
    return result.to_dict()


def generate() -> dict:
    doc = {"instructions": INSTRUCTIONS, "warmup": WARMUP, "cases": {}}
    for name, workload, spec in CASES:
        track = name.startswith("samie-trackdata")
        doc["cases"][name] = {
            "workload": workload,
            "lsq": list(spec[0:1]) + [list(map(list, spec[1]))],
            "track_data": track,
            "result": run_case(workload, spec, track),
        }
        print(f"{name}: cycles={doc['cases'][name]['result']['cycles']}")
    return doc


def generate_artefacts(instructions: int = 300, warmup: int = 100) -> dict:
    doc = {"instructions": instructions, "warmup": warmup, "artefacts": {}}
    with SimService(cache=CacheConfig(backend="off")) as session:
        for figure_id, artefact in ARTEFACTS.items():
            result = artefact.compute(instructions=instructions, warmup=warmup, session=session)
            doc["artefacts"][figure_id] = result.to_dict()
            print(f"{figure_id}: {len(result.rows)} rows")
    return doc


if __name__ == "__main__":
    # the artefacts keep their key order: it is the order ``to_text`` prints
    for path, doc, sort_keys in ((GOLDEN_PATH, generate(), True),
                                 (ARTEFACTS_PATH, generate_artefacts(), False)):
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=sort_keys)
            fh.write("\n")
        print(f"wrote {path}")

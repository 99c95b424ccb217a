"""Fast-path vs retained-reference-scan equivalence (property test).

The hot-path overhaul gave every LSQ model O(1) line/word indexes in
place of linear scans and regrouped the SAMIE area sum.
:mod:`repro.lsq.reference` retains the original scans; this tier runs
identical fuzz programs through the fast and reference variants across
the verify-grid geometries (including ``shared=None`` and tiny
AddrBuffers) and asserts bit-identical ``SimResult``s, committed load
values and final memory images.  Any divergence means an index went
stale or a regrouped float sum rounded differently.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import ProcessorConfig
from repro.core.processor import build_processor
from repro.lsq.arb import ARBConfig
from repro.lsq.reference import (
    ReferenceARBLSQ,
    ReferenceConventionalLSQ,
    ReferenceSamieLSQ,
)
from repro.lsq.samie import SamieConfig
from repro.verify.diff import default_grid
from repro.verify.fuzz import generate_program

#: (geometry name, fast factory via the verify grid, reference factory)
GRID = {p.name: p for p in default_grid()}


def _reference_for(point):
    kw = dict(point.params)
    if point.kind == "conventional":
        return ReferenceConventionalLSQ(capacity=kw.get("capacity", 128))
    if point.kind == "arb":
        return ReferenceARBLSQ(ARBConfig(**kw))
    return ReferenceSamieLSQ(SamieConfig(**kw))


def _run(lsq, program):
    pipe = build_processor(lsq, ProcessorConfig(track_data=True))
    pipe.attach_trace(iter(program))
    n = len(program)
    result = pipe.run(n, max_cycles=200 * n + 20_000)
    return (
        json.loads(json.dumps(result.to_dict())),
        dict(pipe.committed_load_values),
        pipe.committed_memory(),
    )


@pytest.mark.parametrize("name", sorted(GRID))
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_fast_path_matches_reference_scan(name, seed):
    point = GRID[name]
    program = generate_program(seed, profile="mixed", length=400)
    fast = _run(point.make_lsq(), program)
    ref = _run(_reference_for(point), program)
    assert fast[1] == ref[1], f"{name}: committed load values diverged"
    assert fast[2] == ref[2], f"{name}: final memory image diverged"
    for key in fast[0]:
        assert fast[0][key] == ref[0][key], (
            f"{name} seed={seed}: SimResult field {key!r} diverged between "
            f"the fast path and the reference scan\n fast: {fast[0][key]}\n"
            f"  ref: {ref[0][key]}"
        )


def test_fault_injection_blinds_reference_models():
    """`inject_fault` must blind the retained reference scans exactly like
    the fast models, or gate self-tests driving them would stay green."""
    from repro.core.inflight import InFlight
    from repro.isa.opclasses import OpClass
    from repro.isa.uop import UOp
    from repro.verify.diff import inject_fault

    q = ReferenceConventionalLSQ()
    st = InFlight.from_uop(UOp(0, 0, OpClass.STORE, addr=64, size=8))
    st.addr_ready = True
    ld = InFlight.from_uop(UOp(1, 4, OpClass.LOAD, addr=64, size=8))
    ld.addr_ready = True
    q.dispatch(st)
    q.dispatch(ld)
    assert q._forward_source(ld) is st
    with inject_fault("no-store-forwarding"):
        assert q._forward_source(ld) is None
    assert q._forward_source(ld) is st  # restored on exit


@pytest.mark.parametrize("profile", ["aliasing", "bank_conflict", "addr_pressure"])
def test_fast_path_matches_reference_stress_profiles(profile):
    """Aliasing clusters / bank conflicts / AddrBuffer pressure stress the
    indexes far harder than the mixed profile."""
    program = generate_program(11, profile=profile, length=300)
    for name in ("samie-tiny", "samie-ab-tiny", "conventional-16"):
        point = GRID[name]
        fast = _run(point.make_lsq(), program)
        ref = _run(_reference_for(point), program)
        assert fast == ref, f"{name}/{profile}: fast path diverged from reference"

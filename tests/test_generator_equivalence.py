"""Generator equivalence tier: the columnar TraceBuilder vs the per-uop loop.

``ReferenceTraceBuilder`` below is the per-uop generator that the
columnar one replaced, copied verbatim (``_uniform``, ``_dep`` and
``generate``).  It draws from the builder's rng one call at a time, so it
*is* the RNG call order of DESIGN.md §4.  The columnar stream must equal
it on every ``UOp.as_tuple()`` and every record field, however the
stream is consumed: ``next()`` runs are mixed with ``take_batch`` sizes
that cut chunks mid-block and span several dependence refills.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from repro.isa.opclasses import OpClass
from repro.isa.uop import UOp
from repro.scenarios.stressors import (
    INTENSITIES,
    REGION_BASE,
    STRESSOR_NAMES,
    make_profile,
)
from repro.trace.format import record_dtype
from repro.workloads.base import TraceBuilder, WorkloadProfile
from repro.workloads.patterns import (
    ColumnSweep,
    HotRandom,
    MultiArrayStencil,
    PointerChase,
    StackPattern,
    StridedStream,
)
from repro.workloads.registry import get_workload, list_workloads


class ReferenceTraceBuilder(TraceBuilder):
    """The per-uop generator, one rng call at a time (the reference)."""

    # -- chunked randomness ----------------------------------------------------
    def _uniform(self) -> float:
        if self._uniform_pos >= len(self._uniform_buf):
            self._uniform_buf = self._rng.random(8192)
            self._uniform_pos = 0
        v = self._uniform_buf[self._uniform_pos]
        self._uniform_pos += 1
        return float(v)

    def _dep(self) -> int:
        if self._dep_pos >= len(self._dep_buf):
            p = min(1.0, 1.0 / max(self.profile.dep_mean, 1.0))
            self._dep_buf = np.minimum(
                self._rng.geometric(p, 8192), self.profile.dep_max
            )
            self._dep_pos = 0
        v = self._dep_buf[self._dep_pos]
        self._dep_pos += 1
        return int(v)

    # -- dynamic execution -------------------------------------------------------
    def generate(self) -> Iterator[UOp]:
        """Endless dynamic uop stream (the pipeline bounds the run)."""
        slots = self._slots
        total = len(slots)
        cursor = 0
        seq = 0
        while True:
            s = slots[cursor]
            if s.kind == "branch":
                taken = self._uniform() < s.bias
                nxt = s.target if taken else (cursor + 1) % total
                yield UOp(
                    seq,
                    s.pc,
                    OpClass.BRANCH,
                    src1=self._dep(),
                    taken=taken,
                    target=slots[nxt].pc if taken else 0,
                )
                cursor = nxt
            elif s.kind == "mem":
                addr, size = s.pattern.next_access(self._rng)
                if s.op is OpClass.STORE:
                    yield UOp(
                        seq, s.pc, OpClass.STORE,
                        src1=self._dep(), src2=self._dep(), addr=addr, size=size,
                    )
                else:
                    yield UOp(
                        seq, s.pc, OpClass.LOAD,
                        src1=self._dep(), addr=addr, size=size,
                    )
                cursor = (cursor + 1) % total
            else:
                yield UOp(seq, s.pc, s.op, src1=self._dep(), src2=self._dep())
                cursor = (cursor + 1) % total
            seq += 1


def to_records(uops: list[UOp]) -> np.ndarray:
    """Every record field of ``uops``, in the ``.uoptrace`` layout."""
    rec = np.zeros(len(uops), dtype=record_dtype())
    rec["pc"] = [u.pc for u in uops]
    rec["addr"] = [u.addr for u in uops]
    rec["target"] = [u.target for u in uops]
    rec["size"] = [u.size for u in uops]
    rec["src1"] = [u.src1 for u in uops]
    rec["src2"] = [u.src2 for u in uops]
    rec["op"] = [int(u.op) for u in uops]
    rec["flags"] = [1 if u.taken else 0 for u in uops]
    return rec


#: consumption schedule: ``next()`` runs between ``take_batch`` sizes
SCHEDULE = (
    ("next", 300), ("take", 1), ("next", 5), ("take", 7), ("next", 1000),
    ("take", 2596), ("next", 50), ("take", 20000), ("next", 777),
    ("take", 98500), ("next", 400),
)


def assert_stream_matches(profile: WorkloadProfile, seed: int, n: int,
                          rotate: int = 0) -> list[UOp]:
    """Consume ``n`` uops of the columnar stream along :data:`SCHEDULE`
    (started at step ``rotate``, the last step cut to fit) plus a final
    ``next()`` run, checking each against the reference.  Returns the
    reference uops."""
    ref = ReferenceTraceBuilder(profile, seed).generate()
    stream = TraceBuilder(profile, seed).generate()
    seen: list[UOp] = []
    steps = SCHEDULE[rotate:] + SCHEDULE[:rotate]
    done, k = 0, 0
    while done < n:
        kind, size = steps[k % len(steps)]
        k += 1
        size = min(size, n - done)
        expect = [next(ref) for _ in range(size)]
        seen += expect
        at = f"{profile.name} seed {seed}: {kind} {size} at uop {done}"
        if kind == "next":
            got = [next(stream) for _ in range(size)]
            assert [u.as_tuple() for u in got] == [u.as_tuple() for u in expect], at
            assert [type(v) for v in got[0].as_tuple()] == [
                type(v) for v in expect[0].as_tuple()
            ], at
        else:
            rec = stream.take_batch(size)
            assert rec.dtype == record_dtype() and len(rec) == size, at
            want = to_records(expect)
            for name in want.dtype.names:
                assert np.array_equal(rec[name], want[name]), f"{at}: field {name}"
        done += size
    # the cursor is shared: next() resumes at seq == uops consumed so far
    tail = [next(stream) for _ in range(3)]
    assert [u.as_tuple() for u in tail] == [next(ref).as_tuple() for _ in range(3)]
    assert tail[0].seq == n
    return seen


def _load_example(name: str):
    path = Path(__file__).resolve().parents[1] / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def refill_stress_profile() -> WorkloadProfile:
    """Three-slot blocks, branch-dense: 8192 branches take ~13k uops, so the
    uniform refill lands mid-stream, amid every pattern class's draws."""
    base = 0x7000_0000
    return WorkloadProfile(
        name="refill-stress", suite="int", mem_frac=0.40, store_frac=0.40,
        branch_frac=0.45, hard_site_frac=0.5, hard_bias=0.5, loop_bias=0.6,
        compute_mix={OpClass.INT_ALU: 0.6, OpClass.FP_MULT: 0.4},
        dep_mean=4.0, dep_max=20, n_blocks=24, block_len=3,
        make_patterns=lambda: [
            (1.0, StridedStream(base, stride=24, extent=1 << 12)),
            (1.0, MultiArrayStencil(base + 0x10_0000, arrays=3, array_bytes=1 << 12)),
            (1.0, ColumnSweep(base + 0x20_0000, row_bytes=2048, rows=5, cols=3)),
            (1.0, PointerChase(base + 0x40_0000, footprint_bytes=1 << 16, fields=3)),
            (1.0, HotRandom(base + 0x80_0000, region_bytes=512)),
            (1.0, StackPattern(base + 0x90_0000, depth_bytes=64)),
        ],
    )


def _extra_profiles() -> dict[str, WorkloadProfile]:
    out = {
        f"{s}:{i}": make_profile(s, i, REGION_BASE, name=f"eq/{s}:{i}")
        for s in STRESSOR_NAMES for i in INTENSITIES
    }
    out["spmv"] = _load_example("custom_workload").make_profile()
    out["refill-stress"] = refill_stress_profile()
    return out


SPEC = list_workloads()
EXTRA_PROFILES = _extra_profiles()
EXTRA = list(EXTRA_PROFILES)


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("name", SPEC)
    def test_spec_profile(self, name):
        assert_stream_matches(get_workload(name), 1, 20_000,
                              rotate=SPEC.index(name) % len(SCHEDULE))

    @pytest.mark.parametrize("name", EXTRA)
    def test_extra_profile(self, name):
        uops = assert_stream_matches(EXTRA_PROFILES[name], 1, 20_000,
                                     rotate=EXTRA.index(name) % len(SCHEDULE))
        if name == "refill-stress":
            assert sum(u.is_branch for u in uops) > 8192  # a refill mid-stream

    @pytest.mark.slow_fuzz
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", SPEC)
    def test_long_schedule(self, name, seed):
        # one full schedule: every take_batch size whole (~123k uops)
        assert_stream_matches(get_workload(name), seed,
                              sum(size for _, size in SCHEDULE))


class TestStreamInterface:
    def test_take_batch_zero_is_empty(self):
        stream = TraceBuilder(get_workload("gzip"), 1).generate()
        assert len(stream.take_batch(0)) == 0
        assert next(stream).seq == 0

    def test_batch_views_are_read_only(self):
        # a batch inside one chunk is a view of it, which later next()
        # calls still read
        stream = TraceBuilder(get_workload("swim"), 1).generate()
        next(stream)
        rec = stream.take_batch(1)
        with pytest.raises(ValueError):
            rec["addr"][0] = 0

    def test_shared_pattern_object_keeps_one_state(self):
        def make():
            shared = StridedStream(0x1000, stride=8, extent=1 << 12)
            return [(1.0, shared), (1.0, shared), (1.0, HotRandom(0x9000))]

        prof = WorkloadProfile(name="shared", suite="int", make_patterns=make)
        assert_stream_matches(prof, 3, 6000)

    def test_rejects_dep_max_beyond_record_field(self):
        prof = WorkloadProfile(name="wide", suite="int", dep_max=1 << 16,
                               make_patterns=lambda: [(1.0, HotRandom(0))])
        with pytest.raises(ValueError, match="dep_max"):
            TraceBuilder(prof)

"""Equivalence tier: the vectorized warm engine vs the scalar reference.

The contract (see ``repro.trace.sampling`` "Warm engines") is *bit
identity*: after any sampled run, every warmed structure -- L1 caches,
TLBs, predictor tables, BTB -- and the merged ``SimResult`` must be
indistinguishable between ``warm_engine="scalar"`` and ``"vector"``.
That contract is what justifies excluding the engine choice from the
result-cache key, so this tier is the load-bearing wall: it drives the
fuzzer's six workload profiles and the bundled Spike fixture end to end
through both engines, and additionally fuzzes each vector kernel
against the model's own scalar ``warm_access``/``update`` walks at
scales that force the slow paths (TLB eviction, cache eviction with
callbacks, counter saturation, BTB truncation).
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core.processor import build_processor
from repro.experiments.runner import MACHINE_SAMIE, build_lsq
from repro.isa.opclasses import OpClass
from repro.isa.uop import UOp
from repro.mem.cache import Cache
from repro.mem.tlb import TLB
from repro.branch.btb import BTB
from repro.branch.hybrid import HybridPredictor
from repro.trace.fastwarm import (
    VectorWarmEngine,
    _warm_btb,
    _warm_cache,
    _warm_predictor,
    _warm_tlb,
    _sat_walk,
    uops_to_batch,
    warm_state_dump,
)
from repro.trace.sampling import (
    SamplePlan,
    ScalarWarmEngine,
    run_sampled,
)
from repro.trace.spike import ingest_spike_log
from repro.trace.workload import fixture_path, record_trace, spec_name
from repro.verify.fuzz import PROFILE_NAMES, generate_program
from repro.workloads import registry


def _fresh_pipe():
    return build_processor(build_lsq(MACHINE_SAMIE[1]), None)


def _run_both(source_factory, plan, **kw):
    """Sampled run under each engine; returns (results, state dumps)."""
    res, dump = {}, {}
    for eng in ("scalar", "vector"):
        pipe = _fresh_pipe()
        res[eng] = run_sampled(pipe, source_factory(), plan,
                               warm_engine=eng, **kw)
        dump[eng] = warm_state_dump(pipe)
    return res, dump


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_fuzz_profiles_bit_identical(self, profile):
        prog = generate_program(11, profile, length=5000)
        plan = SamplePlan(500, 120, 60)
        res, dump = _run_both(lambda: iter(prog), plan)
        assert dump["scalar"] == dump["vector"]
        assert res["scalar"] == res["vector"]

    def test_recorded_trace_bit_identical(self, tmp_path):
        # the TraceStream.take_batch path (zero-copy frame decode), with
        # a working set big enough to evict from TLBs and caches
        path = str(tmp_path / "swim.uoptrace")
        record_trace(path, "swim", 60000)
        name = spec_name(path)
        plan = SamplePlan(5000, 1200, 400)
        res, dump = _run_both(lambda: registry.make_trace(name), plan)
        assert dump["scalar"] == dump["vector"]
        assert res["scalar"] == res["vector"]

    def test_spike_fixture_bit_identical(self, tmp_path):
        out = str(tmp_path / "spike.uoptrace")
        ingest_spike_log(fixture_path(), out)
        name = spec_name(out)
        plan = SamplePlan(60, 15, 8)
        res, dump = _run_both(lambda: registry.make_trace(name), plan)
        assert dump["scalar"] == dump["vector"]
        assert res["scalar"] == res["vector"]

    def test_warm_totals_match_between_engines(self, tmp_path):
        path = str(tmp_path / "gzip.uoptrace")
        record_trace(path, "gzip", 20000)
        name = spec_name(path)
        res, _ = _run_both(lambda: registry.make_trace(name),
                           SamplePlan(2000, 400, 200))
        w = res["vector"].telemetry()["sampling"]["warm"]
        assert w == res["scalar"].telemetry()["sampling"]["warm"]
        assert w["uops"] > 0 and w["uops"] >= w["iside"]

    def test_batch_size_invariance(self):
        # warming is batch-boundary-free: odd chunkings, one huge batch
        # and the scalar engine all land in the same state
        prog = generate_program(3, "mixed", length=4000)
        rec = uops_to_batch(prog)

        ref_pipe = _fresh_pipe()
        ref = ScalarWarmEngine(ref_pipe)
        for u in prog:
            ref.warm(u)

        for sizes in ([len(prog)], [1, 2, 3, 5, 7, 997]):
            pipe = _fresh_pipe()
            eng = VectorWarmEngine(pipe)
            i = k = 0
            while i < len(rec):
                n = sizes[k % len(sizes)]
                k += 1
                eng.warm_batch(rec[i:i + n])
                i += n
            assert warm_state_dump(pipe) == warm_state_dump(ref_pipe)
            assert eng.warmed == ref.warmed


class TestKernelFuzz:
    """Each vector kernel vs the model's own scalar walk, at scales
    that force the paths the end-to-end profiles may not reach."""

    def test_tlb_eviction_slow_path(self):
        rng = random.Random(5)
        for trial in range(10):
            n_pages = rng.choice([4, 7, 40])
            addrs = [rng.randrange(n_pages) * 4096 + rng.randrange(4096)
                     for _ in range(600)]
            ref = TLB(entries=8)
            vec = TLB(entries=8)
            for a in addrs:
                ref.warm_access(a)
            _warm_tlb(vec, np.array(addrs, dtype=np.uint64))
            assert ref.state_dump() == vec.state_dump(), f"trial {trial}"

    def test_cache_evictions_and_callbacks(self):
        rng = random.Random(9)
        for trial in range(10):
            lines = [rng.randrange(256) for _ in range(800)]
            writes = [rng.random() < 0.3 for _ in range(800)]
            ref = Cache(4096, 2, 64)   # 32 sets x 2 ways: heavy eviction
            vec = Cache(4096, 2, 64)
            ev_ref, ev_vec = [], []
            ref.on_evict = lambda s, l: ev_ref.append((s, l))
            vec.on_evict = lambda s, l: ev_vec.append((s, l))
            for ln, wr in zip(lines, writes):
                ref.warm_access(ln, wr)
            _warm_cache(vec, np.array(lines, dtype=np.uint64),
                        np.array(writes, dtype=bool))
            assert ref.state_dump() == vec.state_dump(), f"trial {trial}"
            assert ev_ref == ev_vec, f"trial {trial}: eviction callbacks"

    def test_saturating_counter_scan(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            nidx = int(rng.integers(1, 6))
            m = int(rng.integers(1, 300))
            idx = rng.integers(0, nidx, size=m).astype(np.int64)
            d = rng.choice([-1, 1], size=m).astype(np.int64)
            ref = bytearray(rng.integers(0, 4, size=nidx).astype(np.uint8).tobytes())
            vec = bytearray(ref)
            before_ref = []
            for i, s in zip(idx.tolist(), d.tolist()):
                before_ref.append(ref[i])
                ref[i] = min(3, max(0, ref[i] + s))
            before_vec = _sat_walk(vec, idx, d)
            assert vec == ref, f"trial {trial}: final table"
            assert before_vec.tolist() == before_ref, f"trial {trial}: pre-step"

    def test_predictor_stream(self):
        rng = random.Random(23)
        for trial in range(5):
            # few distinct pcs -> deep saturation; many -> aliasing
            pcs = [rng.choice([0x400000 + 4 * i for i in range(
                rng.choice([3, 64, 1024]))]) for _ in range(2000)]
            takens = [rng.random() < 0.7 for _ in range(2000)]
            ref = HybridPredictor()
            vec = HybridPredictor()
            for pc, t in zip(pcs, takens):
                ref.update(pc, t, predicted=None)
            _warm_predictor(vec, np.array(pcs, dtype=np.uint64),
                            np.array(takens, dtype=bool))
            assert ref.state_dump() == vec.state_dump(), f"trial {trial}"

    def test_btb_truncation(self):
        rng = random.Random(31)
        for trial in range(10):
            # 8 entries, assoc 4 -> 2 sets; bursts far beyond assoc
            pcs = [rng.choice([0x1000 + 4 * i for i in range(24)])
                   for _ in range(300)]
            tgts = [0x9000 + 4 * rng.randrange(64) for _ in range(300)]
            ref = BTB(entries=8, assoc=4)
            vec = BTB(entries=8, assoc=4)
            for pc, t in zip(pcs, tgts):
                ref.update(pc, t)
            _warm_btb(vec, np.array(pcs, dtype=np.uint64),
                      np.array(tgts, dtype=np.uint64))
            assert ref.state_dump() == vec.state_dump(), f"trial {trial}"

    def test_iline_filter_cross_batch_carry(self):
        # a taken branch at a batch boundary must force the next batch's
        # first uop to re-access its i-line (matching the fetch stage)
        uops = [
            UOp(0, 0x1000, OpClass.BRANCH, taken=True, target=0x1004),
            UOp(1, 0x1004, OpClass.INT_ALU),  # same line: access iff carry
            UOp(2, 0x1008, OpClass.INT_ALU),
        ]
        for split in (1, 2, 3):
            pipe_v = _fresh_pipe()
            eng = VectorWarmEngine(pipe_v)
            rec = uops_to_batch(uops)
            eng.warm_batch(rec[:split])
            if split < len(uops):
                eng.warm_batch(rec[split:])
            pipe_s = _fresh_pipe()
            ref = ScalarWarmEngine(pipe_s)
            for u in uops:
                ref.warm(u)
            assert eng.warmed == ref.warmed, f"split {split}"
            assert warm_state_dump(pipe_v) == warm_state_dump(pipe_s)

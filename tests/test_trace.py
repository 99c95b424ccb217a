"""Tests for the trace subsystem: format, Spike ingestion, sampling,
workload-registry integration and the ``repro trace`` CLI."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.experiments.runner import (
    MACHINE_CONV128,
    MACHINE_SAMIE,
    SimSpec,
    run_many,
    run_spec,
)
from repro.isa.opclasses import OpClass
from repro.isa.uop import UOp
from repro.trace.format import (
    RECORD_BYTES,
    TraceCorruptError,
    TraceError,
    TraceStream,
    TraceWriter,
    read_info,
    trace_token,
    write_trace,
)
from repro.trace.sampling import (
    SamplePlan,
    SampledStream,
    attach_error,
    run_sampled,
)
from repro.trace.spike import SpikeStats, ingest_spike_log, parse_spike_log
from repro.trace.workload import (
    fixture_path,
    record_trace,
    recommended_uops,
    spec_name,
)
from repro.workloads import registry


def edge_uops() -> list[UOp]:
    """Every op class plus boundary addresses/sizes/flags."""
    uops = []
    for i, op in enumerate(OpClass):
        mem = op in (OpClass.LOAD, OpClass.STORE)
        uops.append(UOp(
            i, 0x40_0000 + 4 * i, op,
            src1=i % 3, src2=(i + 1) % 4,
            addr=0x2000_0000 + 8 * i if mem else 0,
            size=8 if mem else 0,
        ))
    n = len(uops)
    uops += [
        UOp(n, 0, OpClass.LOAD, addr=0, size=1),                      # null addr
        UOp(n + 1, 2**64 - 4, OpClass.STORE, addr=2**64 - 8, size=8),  # top of space
        UOp(n + 2, 0x1000, OpClass.LOAD, addr=0x7FFF_FFFF_FFFF_FFF8, size=2),
        UOp(n + 3, 0x1004, OpClass.LOAD, addr=0x123, size=4, src1=0xFFFF),
        UOp(n + 4, 0x1008, OpClass.BRANCH, taken=True, target=2**63),
        UOp(n + 5, 0x100C, OpClass.BRANCH, taken=False, target=0),
        UOp(n + 6, 0x1010, OpClass.STORE, addr=0xDEAD_BEEF, size=4, src2=0xFFFF),
    ]
    return uops


class TestUOpSerialization:
    def test_as_tuple_round_trip_all_classes(self):
        for u in edge_uops():
            v = UOp.from_tuple(u.as_tuple())
            assert v.as_tuple() == u.as_tuple()

    def test_tuple_fields(self):
        u = UOp(7, 0x400, OpClass.STORE, src1=2, src2=5, addr=0x99, size=4)
        assert u.as_tuple() == (7, 0x400, int(OpClass.STORE), 2, 5, 0x99, 4, False, 0)


class TestTraceFormat:
    def test_round_trip_with_frame_boundaries(self, tmp_path):
        path = str(tmp_path / "t.uoptrace")
        base = edge_uops()
        uops = [
            UOp(i, u.pc, u.op, src1=u.src1, src2=u.src2, addr=u.addr,
                size=u.size, taken=u.taken, target=u.target)
            for i, u in enumerate(base * 30)
        ]
        with TraceWriter(path, meta={"k": "v", "n": 1}, frame_uops=64) as w:
            w.extend(uops)
        with TraceStream(path) as r:
            back = list(r)
            assert r.complete
            assert r.meta == {"k": "v", "n": 1}
        assert [u.as_tuple() for u in back] == [u.as_tuple() for u in uops]

    def test_info_and_token(self, tmp_path):
        path = str(tmp_path / "t.uoptrace")
        write_trace(path, edge_uops(), meta={"who": "test"})
        info = read_info(path)
        assert info.complete and info.count == len(edge_uops())
        assert info.digest.startswith("crc32:")
        assert trace_token(path) == info.digest
        scanned = read_info(path, scan=True)
        assert scanned.op_counts["LOAD"] >= 3
        assert sum(scanned.op_counts.values()) == info.count

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.uoptrace")
        info = write_trace(path, [], meta={})
        assert info.count == 0 and info.complete
        with TraceStream(path) as r:
            assert list(r) == []
            assert r.complete

    def test_non_dense_seq_rejected(self, tmp_path):
        path = str(tmp_path / "t.uoptrace")
        w = TraceWriter(path)
        w.append(UOp(0, 0, OpClass.INT_ALU))
        with pytest.raises(TraceError, match="non-dense"):
            w.append(UOp(5, 0, OpClass.INT_ALU))
        w.close()
        with pytest.raises(TraceError, match="closed"):
            w.append(UOp(1, 0, OpClass.INT_ALU))

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "junk.uoptrace")
        with open(path, "wb") as fh:
            fh.write(b"NOTATRACE" * 10)
        with pytest.raises(TraceError, match="magic"):
            TraceStream(path)

    def test_src_distance_clamped_to_16bit(self, tmp_path):
        path = str(tmp_path / "t.uoptrace")
        write_trace(path, [UOp(0, 0, OpClass.LOAD, src1=1 << 20, addr=8, size=8)])
        (u,) = list(TraceStream(path))
        assert u.src1 == 0xFFFF


def _write_sample(tmp_path, n_frames=4, frame_uops=32) -> tuple[str, list[UOp]]:
    path = str(tmp_path / "full.uoptrace")
    uops = [
        UOp(i, 0x400000 + 4 * i, OpClass.LOAD if i % 3 else OpClass.STORE,
            addr=0x1000 + 8 * (i % 64), size=8)
        for i in range(n_frames * frame_uops)
    ]
    with TraceWriter(path, frame_uops=frame_uops) as w:
        w.extend(uops)
    return path, uops


class TestCorruptionRecovery:
    @pytest.mark.parametrize("cut", [3, 10, 0.35, 0.6, 0.98])
    def test_truncation(self, tmp_path, cut):
        path, uops = _write_sample(tmp_path)
        raw = open(path, "rb").read()
        cut_at = cut if isinstance(cut, int) else int(len(raw) * cut)
        trunc = str(tmp_path / "trunc.uoptrace")
        with open(trunc, "wb") as fh:
            fh.write(raw[:cut_at])
        if cut_at < 14:  # inside the fixed header: unreadable at open
            with pytest.raises(TraceCorruptError):
                TraceStream(trunc)
            return
        with pytest.raises(TraceCorruptError):
            list(TraceStream(trunc, strict=True))
        with TraceStream(trunc, strict=False) as r:
            got = list(r)
            assert not r.complete
        # recovery yields a clean prefix: whole frames, in order (a cut
        # inside the footer itself loses no records, only completeness)
        assert len(got) % 32 == 0 and len(got) <= len(uops)
        assert [u.as_tuple() for u in got] == [u.as_tuple() for u in uops[:len(got)]]
        info = read_info(trunc)  # auto-scans incomplete files
        assert not info.complete and info.count == len(got)
        with pytest.raises(TraceCorruptError):
            trace_token(trunc)  # refuses to cache-key a truncated trace

    def test_corrupt_payload_byte(self, tmp_path):
        path, uops = _write_sample(tmp_path)
        raw = bytearray(open(path, "rb").read())
        # flip a byte inside the second frame's payload
        frame1_start = 14 + 2 + 12  # header+meta "{}", frame header
        raw[frame1_start + 200] ^= 0xFF
        bad = str(tmp_path / "bad.uoptrace")
        with open(bad, "wb") as fh:
            fh.write(bytes(raw))
        with pytest.raises(TraceCorruptError):
            list(TraceStream(bad, strict=True))
        with TraceStream(bad, strict=False) as r:
            got = list(r)
        assert len(got) % 32 == 0 and len(got) < len(uops)

    def test_record_bytes_constant(self):
        assert RECORD_BYTES == 32


class TestReplayEquivalence:
    @pytest.mark.parametrize("machine", [MACHINE_SAMIE, MACHINE_CONV128])
    def test_replay_bit_identical_to_live(self, tmp_path, machine):
        n, warm = 800, 200
        path = str(tmp_path / "gzip.uoptrace")
        info = record_trace(path, "gzip", recommended_uops(n, warm))
        assert info.count == recommended_uops(n, warm)
        live = run_spec(SimSpec.make("gzip", machine, n, warm))
        replay = run_spec(SimSpec.make(spec_name(path), machine, n, warm))
        assert replay.to_dict() == live.to_dict()

    def test_replay_through_run_many_pool(self, tmp_path):
        n, warm = 500, 100
        path = str(tmp_path / "mcf.uoptrace")
        record_trace(path, "mcf", recommended_uops(n, warm))
        live = run_spec(SimSpec.make("mcf", MACHINE_SAMIE, n, warm))
        (replay,) = run_many(
            [SimSpec.make(spec_name(path), MACHINE_SAMIE, n, warm)], jobs=2
        )
        assert replay.to_dict() == live.to_dict()

    def test_overwriting_trace_changes_cache_key(self, tmp_path):
        path = str(tmp_path / "t.uoptrace")
        record_trace(path, "gzip", 3000, seed=1)
        key1 = SimSpec.make(spec_name(path), MACHINE_SAMIE, 500, 100).key
        record_trace(path, "gzip", 3000, seed=2)
        key2 = SimSpec.make(spec_name(path), MACHINE_SAMIE, 500, 100).key
        assert key1 != key2


PYTHIA_LOG = """\
0x0000000080000000 (0x80010537) x10 0x0000000080010000
0x0000000080000004 (0x00053283) x 5 0x0000000000000011
0x0000000080000008 (0x00553423)
0x000000008000000c (0x00128293) x 5 0x0000000000000012
0x0000000080000010 (0xfe5546e3)
0x0000000080000004 (0x00053283) x 5 0x0000000000000011
"""


class TestSpikeParser:
    def test_pythia_format_reconstruction(self):
        st = SpikeStats()
        uops = list(parse_spike_log(PYTHIA_LOG.splitlines(), st))
        assert [u.op for u in uops] == [
            OpClass.INT_ALU, OpClass.LOAD, OpClass.STORE,
            OpClass.INT_ALU, OpClass.BRANCH, OpClass.LOAD,
        ]
        ld = uops[1]
        assert ld.addr == 0x80010000 and ld.size == 8
        assert ld.src1 == 1  # base x10 written by the lui one uop earlier
        store = uops[2]
        assert store.addr == 0x80010008 and store.size == 8
        assert store.src2 == 1  # data operand x5 from the load
        br = uops[4]
        assert br.taken and br.target == 0x80000004
        assert st.mem_unresolved == 0 and st.skipped_lines == 0

    def test_mem_annotation_wins(self):
        lines = ["core   0: 3 0x0000000080000000 (0x00053283) x5 0x7 mem 0x0000000080099000"]
        (u,) = list(parse_spike_log(lines))
        assert u.op is OpClass.LOAD and u.addr == 0x80099000

    def test_unknown_base_demoted(self):
        st = SpikeStats()
        (u,) = list(parse_spike_log(["0x0000000080000000 (0x00053283) x 5 0x7"], st))
        assert u.op is OpClass.INT_ALU and st.mem_unresolved == 1

    def test_not_taken_branch(self):
        lines = [
            "0x0000000080000000 (0xfe5546e3)",
            "0x0000000080000004 (0x00128293) x 5 0x1",
        ]
        uops = list(parse_spike_log(lines))
        assert uops[0].op is OpClass.BRANCH and not uops[0].taken

    def test_compressed_load(self):
        lines = [
            "0x0000000080000000 (0x80010437) x 8 0x0000000080010000",  # lui x8
            "0x0000000080000004 (0x4044) x 9 0x0000000000000001",      # c.lw x9,4(x8)
        ]
        st = SpikeStats()
        uops = list(parse_spike_log(lines, st))
        assert uops[1].op is OpClass.LOAD
        assert uops[1].addr == 0x80010004 and uops[1].size == 4
        assert st.compressed == 1

    def test_fp_registers_tracked_separately(self):
        lines = [
            "0x0000000080000000 (0x80010537) x10 0x0000000080010000",  # lui x10
            "0x0000000080000004 (0x00500293) x 5 0x0000000000000005",  # addi x5
            "0x0000000080000008 (0x00053287) f 5 0x4014000000000000",  # fld f5,0(x10)
            "0x000000008000000c (0x00853307) f 6 0x4018000000000000",  # fld f6,8(x10)
            "0x0000000080000010 (0x026283d3) f 7 0x4026000000000000",  # fadd.d f7,f5,f6
        ]
        uops = list(parse_spike_log(lines))
        fadd = uops[4]
        assert fadd.op is OpClass.FP_ALU
        # sources are f5/f6 (the flds, distance 2 and 1), not x5 (the addi)
        assert (fadd.src1, fadd.src2) == (2, 1)
        # and the flds still compute their addresses from the x file
        assert uops[2].addr == 0x80010000 and uops[3].addr == 0x80010008

    def test_fp_store_data_dependence(self):
        lines = [
            "0x0000000080000000 (0x80010537) x10 0x0000000080010000",  # lui x10
            "0x0000000080000004 (0x00053287) f 5 0x4014000000000000",  # fld f5,0(x10)
            "0x0000000080000008 (0x00553427)",                         # fsd f5,8(x10)
        ]
        uops = list(parse_spike_log(lines))
        fsd = uops[2]
        assert fsd.op is OpClass.STORE and fsd.addr == 0x80010008
        assert fsd.src2 == 1  # data operand f5 from the fld, not x5

    def test_garbage_lines_counted(self):
        st = SpikeStats()
        assert list(parse_spike_log(["warning: something", ""], st)) == []
        assert st.skipped_lines == 1

    def test_fixture_parses_fully(self):
        st = SpikeStats()
        with open(fixture_path()) as fh:
            uops = list(parse_spike_log(fh, st))
        assert st.decoded == 581 and st.skipped_lines == 0
        assert st.mem_unresolved == 0 and st.pc_gaps == 0
        assert st.op_counts == {
            "INT_ALU": 325, "LOAD": 128, "STORE": 64, "BRANCH": 64,
        }
        loads = [u for u in uops if u.is_load]
        stores = [u for u in uops if u.is_store]
        assert loads[0].addr == 0x80010000 and loads[1].addr == 0x80018000
        assert stores[0].addr == 0x80020000 and stores[-1].addr == 0x80020000 + 63 * 8
        taken = [u for u in uops if u.is_branch and u.taken]
        assert len(taken) == 63  # final iteration falls through

    def test_fixture_ingests_and_runs(self, tmp_path):
        out = str(tmp_path / "vvadd.uoptrace")
        info, st = ingest_spike_log(fixture_path(), out)
        assert info.complete and info.count == 581
        assert info.meta["source"] == "spike"
        res = run_spec(SimSpec.make(spec_name(out), MACHINE_SAMIE, 581, 0))
        assert res.instructions == 581
        assert res.ipc > 0.5

class TestPtrchaseFixture:
    """The second Spike fixture: a self-updating pointer chase."""

    def test_generator_matches_committed_fixture(self):
        # the committed log is the generator's output byte for byte
        from repro.trace.fixtures.gen_ptrchase import emit

        with open(fixture_path("spike_ptrchase.log")) as fh:
            assert fh.read() == "\n".join(emit()) + "\n"

    def test_fixture_parses_fully(self):
        st = SpikeStats()
        with open(fixture_path("spike_ptrchase.log")) as fh:
            uops = list(parse_spike_log(fh, st))
        assert st.decoded == 644 and st.skipped_lines == 0
        assert st.mem_unresolved == 0 and st.pc_gaps == 0
        assert st.op_counts == {"INT_ALU": 260, "LOAD": 256, "BRANCH": 128}
        # the `ld x10, 0(x10)` pointer follow: addresses must come from
        # the pre-writeback register file, walking the node permutation
        follows = [u for u in uops if u.is_load and u.pc == 0x8000_0014]
        assert len(follows) == 128
        idx, expected = 0, []
        for _ in range(128):
            expected.append(0x8003_0000 + idx * 1024)
            idx = (idx * 5 + 3) % 96
        assert [u.addr for u in follows] == expected
        # page diversity is the point of this fixture (vvadd has 3 pages)
        assert len({u.addr >> 12 for u in uops if u.is_load}) == 24

    def test_fixture_ingests_and_runs(self, tmp_path):
        out = str(tmp_path / "ptrchase.uoptrace")
        info, st = ingest_spike_log(fixture_path("spike_ptrchase.log"), out)
        assert info.complete and info.count == 644
        assert info.meta["source"] == "spike"
        res = run_spec(SimSpec.make(spec_name(out), MACHINE_SAMIE, 644, 0))
        assert res.instructions == 644
        # the chase is latency-bound by design (dependent loads across 24
        # pages): a fraction of vvadd's IPC, but it must make progress
        assert 0.03 < res.ipc < 0.5


class TestSamplePlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplePlan(0, 0, 1)
        with pytest.raises(ValueError):
            SamplePlan(100, 80, 40)  # warm+measure > period
        with pytest.raises(ValueError):
            SamplePlan.from_ratio(1.5)

    def test_from_ratio(self):
        plan = SamplePlan.from_ratio(0.1, period=5000)
        assert plan.measure == 500 and plan.warmup == 1500
        assert plan.ratio == pytest.approx(0.1)
        assert plan.speedup == pytest.approx(2.5)

    def test_from_ratio_rejects_degenerate_plan(self):
        # a ratio that fills the whole period simulates everything in
        # detail anyway; that is full replay with worse statistics
        with pytest.raises(ValueError, match="nothing to skip"):
            SamplePlan.from_ratio(0.5)

    def test_exact_fill_boundary_is_consistent(self):
        # warmup + measure == period is legal on BOTH construction paths
        # (the constructor always accepted it; from_ratio used to raise)
        plan = SamplePlan(100, 60, 40)
        assert plan.simulated_per_period == plan.period
        via_ratio = SamplePlan.from_ratio(0.25, period=100, warmup_frac=3.0)
        assert via_ratio == SamplePlan(100, 75, 25)
        assert via_ratio.simulated_per_period == via_ratio.period
        # one past the boundary still raises on both paths
        with pytest.raises(ValueError):
            SamplePlan(100, 61, 40)
        with pytest.raises(ValueError, match="nothing to skip"):
            SamplePlan.from_ratio(0.26, period=100, warmup_frac=3.0)

    def test_stream_renumbers_and_skips(self):
        src = [UOp(i, 4 * i, OpClass.INT_ALU) for i in range(100)]
        skipped: list[int] = []
        recorder = SimpleNamespace(warm=lambda u: skipped.append(u.pc))
        stream = SampledStream(src, SamplePlan(10, 2, 3), engine=recorder)
        out = list(stream)
        assert [u.seq for u in out] == list(range(50))  # dense renumbering
        assert stream.consumed == 100 and stream.yielded == 50
        assert len(skipped) == 50
        # kept uops are the first 5 of each 10-instruction period
        assert [u.pc for u in out[:5]] == [0, 4, 8, 12, 16]
        assert out[5].pc == 40


class TestSampledReplay:
    def test_sampled_within_5pct_of_full_at_10pct_ratio(self, tmp_path):
        # the ISSUE acceptance bar: 10%-ratio sampling (functional
        # warming on by default), <=5% IPC error, >=5x fewer measured
        # instructions
        path = str(tmp_path / "swim.uoptrace")
        n_trace = 120000
        record_trace(path, "swim", n_trace)
        name = spec_name(path)
        full = run_spec(SimSpec.make(name, MACHINE_SAMIE, n_trace - 3000, 2000))
        plan = SamplePlan.from_ratio(0.1)
        sampled = run_spec(
            SimSpec.make(name, MACHINE_SAMIE, n_trace, 0, sample=plan.key())
        )
        err = attach_error(sampled, full)
        s = sampled.telemetry()["sampling"]
        assert err < 0.05, f"sampling error {err:.1%} vs full"
        assert s["measured_instructions"] * 5 <= full.instructions
        assert s["windows"] >= 10
        assert s["ipc_error_vs_full"] == err and s["full_ipc"] == full.ipc

    def test_sampled_result_survives_disk_cache(self, tmp_path):
        from repro.core.pipeline import SimResult

        path = str(tmp_path / "gzip.uoptrace")
        record_trace(path, "gzip", 12000)
        spec = SimSpec.make(spec_name(path), MACHINE_SAMIE, 12000, 0,
                            sample=(1000, 300, 100))
        res = run_spec(spec)
        assert res.telemetry()["sampling"]["windows"] > 0
        back = SimResult.from_dict(res.to_dict())
        assert back.extra == res.extra and back.ipc == res.ipc

    def test_trace_shorter_than_one_window_rejected(self, tmp_path):
        from repro.core.processor import build_processor
        from repro.experiments.runner import build_lsq

        path = str(tmp_path / "short.uoptrace")
        record_trace(path, "gzip", 800)  # shorter than the default warmup
        pipe = build_processor(build_lsq(MACHINE_SAMIE[1]), None)
        with pytest.raises(ValueError, match="no complete sampling window"):
            run_sampled(pipe, registry.make_trace(spec_name(path)),
                        SamplePlan.from_ratio(0.1))

    def test_functional_warming_mode_runs(self, tmp_path):
        from repro.core.processor import build_processor
        from repro.experiments.runner import build_lsq

        path = str(tmp_path / "gzip.uoptrace")
        record_trace(path, "gzip", 8000)
        pipe = build_processor(build_lsq(MACHINE_SAMIE[1]), None)
        res = run_sampled(pipe, registry.make_trace(spec_name(path)),
                          SamplePlan(1000, 200, 100))
        assert res.instructions > 0
        assert res.telemetry()["sampling"]["windows"] > 1

    def test_zero_warmup_plan_does_not_double_count(self, tmp_path):
        from repro.core.processor import build_processor
        from repro.experiments.runner import build_lsq

        path = str(tmp_path / "gzip.uoptrace")
        record_trace(path, "gzip", 6000)
        pipe = build_processor(build_lsq(MACHINE_SAMIE[1]), None)
        res = run_sampled(pipe, registry.make_trace(spec_name(path)),
                          SamplePlan(1000, 0, 100), max_measured=1000)
        s = res.telemetry()["sampling"]
        # without a per-window stat reset these windows report cumulative
        # totals: merged instructions overshoot what was simulated
        assert res.instructions == s["measured_instructions"] <= 1000
        assert res.instructions <= s["simulated_instructions"] == pipe.committed
        assert res.cycles <= pipe.cycle

    def test_attach_error_rejects_degenerate_full_baseline(self):
        from repro.core.pipeline import SimResult

        def mini(instructions, cycles):
            return SimResult(instructions, cycles, "samie", {}, {}, {},
                             0, 0.0, 0.0, 0.0, {})

        sampled = mini(100, 80)
        # a zero-IPC full replay admits no relative error; reporting a
        # "perfect" sample against it would mask the broken baseline
        with pytest.raises(ValueError, match="degenerate baseline"):
            attach_error(sampled, mini(0, 500))
        assert "sampling" not in sampled.extra  # nothing half-recorded
        assert attach_error(sampled, mini(100, 80)) == 0.0

    def test_splice_boundary_bias_bounded(self, tmp_path):
        # dependence-heavy stream with producer distances longer than a
        # measured window: every clamp at a window start severs a real
        # dependence, the worst case for splice bias.  The clamp trades
        # a spurious stall (re-attaching to an unrelated uop) for a
        # missing one; this pins that the resulting IPC bias stays
        # bounded rather than compounding.
        uops = []
        for i in range(40000):
            if i % 4 == 0:
                uops.append(UOp(i, 0x400000 + 4 * i, OpClass.LOAD,
                                addr=0x10000000 + 8 * (i % 4096), size=8,
                                src1=min(i, 80)))
            else:
                uops.append(UOp(i, 0x400000 + 4 * i, OpClass.INT_ALU,
                                src1=min(i, 80), src2=min(i, 3)))
        path = str(tmp_path / "dep.uoptrace")
        write_trace(path, uops)
        name = spec_name(path)
        full = run_spec(SimSpec.make(name, MACHINE_SAMIE, 37000, 2000))
        sampled = run_spec(SimSpec.make(name, MACHINE_SAMIE, 40000, 0,
                                        sample=(4000, 1200, 400)))
        err = attach_error(sampled, full)
        assert err < 0.10, f"splice-boundary bias {err:.1%}"

    def test_warm_traffic_kept_out_of_measured_stats(self, tmp_path):
        from repro.core.processor import build_processor
        from repro.experiments.runner import build_lsq

        path = str(tmp_path / "swim.uoptrace")
        record_trace(path, "swim", 30000)
        pipe = build_processor(build_lsq(MACHINE_SAMIE[1]), None)
        res = run_sampled(pipe, registry.make_trace(spec_name(path)),
                          SamplePlan(3000, 400, 200))
        warm = res.telemetry()["sampling"]["warm"]
        assert set(warm) == {"uops", "iside", "dside", "branches"}
        assert warm["uops"] > 20000  # ~87% of the stream was skipped
        # detailed counters cover one window's warmup+measure traffic;
        # had warm accesses leaked into the stats, the skip gap's d-side
        # traffic alone would dwarf this bound
        detailed_accesses = pipe.mem.l1d.stats.accesses
        assert 0 < detailed_accesses < warm["dside"] / 4

    def test_simulated_instructions_is_delta_from_entry(self, tmp_path):
        from repro.core.processor import build_processor
        from repro.experiments.runner import build_lsq

        path = str(tmp_path / "gzip.uoptrace")
        record_trace(path, "gzip", 6000)
        pipe = build_processor(build_lsq(MACHINE_SAMIE[1]), None)
        # a pipe that arrives with prior commits on the books (the
        # counter is monotonic across runs) must report only its own
        # windows' commits, not the lifetime total
        prior = 5000
        pipe.committed += prior
        res = run_sampled(pipe, registry.make_trace(spec_name(path)),
                          SamplePlan(1000, 200, 100))
        s = res.telemetry()["sampling"]["simulated_instructions"]
        assert s == pipe.committed - prior
        assert 0 < s < pipe.committed

    def test_relative_trace_path_canonicalised(self, tmp_path, monkeypatch):
        record_trace(str(tmp_path / "rel.uoptrace"), "gzip", 3000)
        monkeypatch.chdir(tmp_path)
        spec = SimSpec.make("trace:rel.uoptrace", MACHINE_SAMIE, 500, 100)
        assert spec.workload == spec_name(str(tmp_path / "rel.uoptrace"))
        abs_spec = SimSpec.make(spec_name(str(tmp_path / "rel.uoptrace")),
                                MACHINE_SAMIE, 500, 100)
        assert spec.key == abs_spec.key

    def test_trace_replay_seed_normalised_in_key(self, tmp_path):
        path = str(tmp_path / "t.uoptrace")
        record_trace(path, "gzip", 3000)
        # replay ignores the seed, so distinct seeds share one cache entry
        a = SimSpec.make(spec_name(path), MACHINE_SAMIE, 500, 100, seed=1)
        b = SimSpec.make(spec_name(path), MACHINE_SAMIE, 500, 100, seed=2)
        assert a.key == b.key
        # synthetic workloads keep their per-seed identity
        c = SimSpec.make("gzip", MACHINE_SAMIE, 500, 100, seed=1)
        d = SimSpec.make("gzip", MACHINE_SAMIE, 500, 100, seed=2)
        assert c.key != d.key

    def test_sweep_keyed_by_caller_names(self, tmp_path, monkeypatch):
        from repro.experiments.runner import sweep

        record_trace(str(tmp_path / "t.uoptrace"), "gzip", 3000)
        monkeypatch.chdir(tmp_path)
        # the spec carries trace:<abspath>; the result keeps the caller's name
        out = sweep(["trace:t.uoptrace"], [MACHINE_SAMIE],
                    instructions=400, warmup=100)
        assert ("trace:t.uoptrace", "samie") in out

    def test_sample_changes_cache_key(self, tmp_path):
        a = SimSpec.make("gzip", MACHINE_SAMIE, 1000, 0)
        b = SimSpec.make("gzip", MACHINE_SAMIE, 1000, 0, sample=(1000, 300, 100))
        assert a.key != b.key


class TestRegistryOrders:
    def test_name_order_is_sorted(self):
        names = registry.list_workloads()
        assert names == sorted(names) and len(names) == 26

    def test_paper_order(self):
        from repro.workloads.spec2000 import PAPER_ORDER

        assert registry.list_workloads(order="paper") == list(PAPER_ORDER)
        assert len(registry.list_workloads(order="paper")) == 26

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            registry.list_workloads(order="chaos")

    def test_trace_scheme_resolves_without_registration(self, tmp_path):
        path = str(tmp_path / "t.uoptrace")
        write_trace(path, [UOp(0, 8, OpClass.INT_ALU)], meta={})
        assert registry.has_workload(spec_name(path))
        assert not registry.has_workload("trace:/nonexistent/file.uoptrace")


class TestTraceCLI:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "ammp" in out and "int" in out and "fp" in out

    def test_workloads_paper_order_verbose(self, capsys):
        assert main(["workloads", "--order", "paper", "--verbose"]) == 0
        assert "molecular dynamics" in capsys.readouterr().out

    def test_record_info_replay(self, tmp_path, capsys):
        out = str(tmp_path / "t.uoptrace")
        assert main(["trace", "record", "gzip", "-o", out,
                     "--instructions", "600", "--warmup", "100"]) == 0
        assert main(["trace", "info", out, "--scan"]) == 0
        text = capsys.readouterr().out
        assert "records" in text and "complete   True" in text
        assert main(["run", spec_name(out), "--no-cache",
                     "--instructions", "600", "--warmup", "100"]) == 0
        assert "ipc=" in capsys.readouterr().out

    def test_replay_sampled_with_check(self, tmp_path, capsys):
        out = str(tmp_path / "t.uoptrace")
        assert main(["trace", "record", "gzip", "-o", out, "--uops", "12000"]) == 0
        assert main(["run", spec_name(out), "--no-cache",
                     "--sample-ratio", "0.1", "--sample-period", "1000",
                     "--check-full"]) == 0
        text = capsys.readouterr().out
        assert "sampling:" in text and "ipc_error_vs_full" in text

    def test_ingest_fixture(self, tmp_path, capsys):
        out = str(tmp_path / "vvadd.uoptrace")
        assert main(["trace", "ingest", fixture_path(), "-o", out]) == 0
        text = capsys.readouterr().out
        assert "decoded=581" in text
        assert main(["run", spec_name(out), "--warmup", "0", "--no-cache"]) == 0

    def test_check_full_without_sample_ratio_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "t.uoptrace")
        record_trace(out, "gzip", 2000)
        assert main(["run", spec_name(out), "--no-cache", "--check-full"]) == 2

    def test_replay_short_trace_sampled_fails_cleanly(self, tmp_path, capsys):
        out = str(tmp_path / "t.uoptrace")
        record_trace(out, "gzip", 800)
        assert main(["run", spec_name(out), "--no-cache",
                     "--sample-ratio", "0.1"]) == 1
        assert "sampling window" in capsys.readouterr().err

    def test_replay_midfile_corruption_fails_cleanly(self, tmp_path, capsys):
        out = str(tmp_path / "t.uoptrace")
        record_trace(out, "gzip", 5000)
        raw = bytearray(open(out, "rb").read())
        raw[len(raw) // 2] ^= 0xFF  # corrupt a frame, footer stays valid
        with open(out, "wb") as fh:
            fh.write(bytes(raw))
        assert main(["run", spec_name(out), "--no-cache",
                     "--instructions", "4000", "--warmup", "0"]) == 1
        assert capsys.readouterr().err.strip()

    def test_check_full_with_instructions_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "t.uoptrace")
        record_trace(out, "gzip", 12000)
        assert main(["run", spec_name(out), "--no-cache", "--sample-ratio",
                     "0.1", "--instructions", "1000", "--check-full"]) == 2
        assert "whole-trace" in capsys.readouterr().err

    def test_check_full_does_not_pollute_runner_memo(self, tmp_path, monkeypatch):
        from repro import cli

        out = str(tmp_path / "t.uoptrace")
        record_trace(out, "gzip", 12000)
        # the memo to inspect is the one session the command runs on
        sessions = []
        real = cli._session
        monkeypatch.setattr(cli, "_session",
                            lambda args: sessions.append(real(args)) or sessions[-1])
        assert main(["run", spec_name(out), "--sample-ratio", "0.1",
                     "--sample-period", "1000", "--check-full"]) == 0
        (session,) = sessions
        assert len(session._memo) == 2  # the sampled and the full run
        for res in session._memo.values():
            assert "ipc_error_vs_full" not in (res.extra or {}).get("sampling", {})

    def test_missing_paths_fail_cleanly(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.uoptrace")
        assert main(["trace", "info", missing]) == 1
        assert main(["trace", "ingest", missing, "-o", str(tmp_path / "o")]) == 1
        assert main(["run", "trace:" + missing, "--no-cache"]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_non_trace_file_fails_cleanly(self, tmp_path, capsys):
        junk = str(tmp_path / "junk.bin")
        with open(junk, "wb") as fh:
            fh.write(b"definitely not a uoptrace container")
        assert main(["trace", "info", junk]) == 1
        assert main(["run", spec_name(junk)]) == 1
        err = capsys.readouterr().err
        assert "magic" in err and "Traceback" not in err

    def test_record_errors_fail_cleanly(self, tmp_path, capsys):
        out = str(tmp_path / "t.uoptrace")
        assert main(["trace", "record", "quake3", "-o", out]) == 1
        assert main(["trace", "record", "gzip",
                     "-o", str(tmp_path / "no_dir" / "t.uoptrace")]) == 1
        err = capsys.readouterr().err
        assert "unknown workload" in err and "Traceback" not in err

    def test_bad_sample_ratio_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "t.uoptrace")
        record_trace(out, "gzip", 2000)
        assert main(["run", spec_name(out), "--no-cache",
                     "--sample-ratio", "1.5"]) == 2
        assert "ratio" in capsys.readouterr().err

    def test_warmup_with_sampling_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "t.uoptrace")
        record_trace(out, "gzip", 2000)
        assert main(["run", spec_name(out), "--no-cache", "--sample-ratio",
                     "0.1", "--warmup", "500"]) == 2
        assert "warmup" in capsys.readouterr().err.lower()

    def test_run_truncated_trace_fails_cleanly(self, tmp_path, capsys):
        out = str(tmp_path / "t.uoptrace")
        record_trace(out, "gzip", 3000)
        raw = open(out, "rb").read()
        with open(out, "wb") as fh:
            fh.write(raw[:-40])  # lose the footer
        assert main(["run", spec_name(out), "--no-cache",
                     "--instructions", "500", "--warmup", "0"]) == 1
        assert "footer" in capsys.readouterr().err

    def test_info_on_truncated_trace_fails(self, tmp_path, capsys):
        out = str(tmp_path / "t.uoptrace")
        write_trace(out, edge_uops(), meta={})
        raw = open(out, "rb").read()
        with open(out, "wb") as fh:
            fh.write(raw[:-10])
        assert main(["trace", "info", out]) == 1
        assert "complete   False" in capsys.readouterr().out

    def test_run_accepts_trace_workload(self, tmp_path, capsys):
        out = str(tmp_path / "t.uoptrace")
        record_trace(out, "gzip", 2000)
        assert main(["run", spec_name(out), "--no-cache",
                     "--instructions", "1000", "--warmup", "0"]) == 0
        assert "ipc=" in capsys.readouterr().out

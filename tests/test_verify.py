"""Unit tests for the differential-verification subsystem (repro.verify)."""

from __future__ import annotations

import json

import pytest

from repro.isa.opclasses import OpClass
from repro.isa.uop import UOp
from repro.verify import oracle
from repro.verify.campaign import GRIDS, CampaignConfig, run_campaign
from repro.verify.diff import (
    FAULTS,
    check_program,
    compare_outcome,
    default_grid,
    diff_program,
    inject_fault,
    quick_grid,
    run_model,
)
from repro.verify.fuzz import (
    PROFILE_NAMES,
    ProgramSpec,
    generate_program,
    program_stream,
    uop_from_tuple,
    uop_tuple,
)


def mk_program(*specs) -> list[UOp]:
    """Build a program from ('load'|'store'|'alu', addr, size[, src2]) tuples."""
    ops = []
    for seq, s in enumerate(specs):
        kind = s[0]
        pc = 0x400000 + 4 * seq
        if kind == "load":
            ops.append(UOp(seq, pc, OpClass.LOAD, addr=s[1], size=s[2]))
        elif kind == "store":
            src2 = s[3] if len(s) > 3 else 0
            ops.append(UOp(seq, pc, OpClass.STORE, src2=src2, addr=s[1], size=s[2]))
        elif kind == "alu":
            ops.append(UOp(seq, pc, OpClass.INT_MULT))
        else:
            raise ValueError(kind)
    return ops


class TestOracle:
    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_forwarding_across_sizes(self, size):
        # leading alu gives the store a nonzero seq, distinct from the
        # initial-memory tag 0
        prog = mk_program(("alu",), ("store", 0x1000, size), ("load", 0x1000, size))
        res = oracle.execute(prog)
        assert res.load_values[2] == (1,) * size

    def test_store_seq_tags_bytes(self):
        prog = mk_program(("alu",), ("store", 0x1000, 4), ("load", 0x1000, 4))
        res = oracle.execute(prog)
        assert res.load_values[2] == (1, 1, 1, 1)
        assert res.final_mem == {0x1000 + i: 1 for i in range(4)}

    def test_partial_overlap_tags(self):
        # 4-byte store into the high half of an 8-byte load's range
        prog = mk_program(("alu",), ("store", 0x1004, 4), ("load", 0x1000, 8))
        res = oracle.execute(prog)
        assert res.load_values[2] == (0, 0, 0, 0, 1, 1, 1, 1)

    def test_misaligned_in_word(self):
        # 1-byte store at offset 3 seen by a 2-byte load at offset 2
        prog = mk_program(("alu",), ("store", 0x1003, 1), ("load", 0x1002, 2))
        res = oracle.execute(prog)
        assert res.load_values[2] == (0, 1)

    def test_youngest_writer_wins_per_byte(self):
        prog = mk_program(
            ("store", 0x1000, 8),  # seq 0
            ("store", 0x1004, 4),  # seq 1 overwrites the high half
            ("load", 0x1000, 8),   # seq 2
        )
        res = oracle.execute(prog)
        assert res.load_values[2] == (0, 0, 0, 0, 1, 1, 1, 1)
        assert res.final_mem[0x1000] == 0 and res.final_mem[0x1007] == 1

    def test_counts(self):
        prog = mk_program(("store", 0x1000, 8), ("load", 0x1000, 8), ("alu",))
        res = oracle.execute(prog)
        assert (res.stores, res.loads) == (1, 1)


class TestFuzzer:
    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_deterministic_under_fixed_seed(self, profile):
        a = [uop_tuple(u) for u in generate_program(1234, profile)]
        b = [uop_tuple(u) for u in generate_program(1234, profile)]
        assert a == b

    def test_seeds_differ(self):
        a = [uop_tuple(u) for u in generate_program(1, "mixed")]
        b = [uop_tuple(u) for u in generate_program(2, "mixed")]
        assert a != b

    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_programs_are_valid(self, profile):
        ops = generate_program(99, profile)
        assert [u.seq for u in ops] == list(range(len(ops)))
        for u in ops:
            if u.is_mem:
                assert u.size in (1, 2, 4, 8)
                assert u.addr % u.size == 0  # size-aligned
                assert (u.addr % 8) + u.size <= 8  # inside one word
            if u.is_branch and u.taken:
                assert u.target != 0

    def test_uop_tuple_roundtrip(self):
        ops = generate_program(5, "mixed")
        back = [uop_from_tuple(uop_tuple(u)) for u in ops]
        assert [uop_tuple(u) for u in back] == [uop_tuple(u) for u in ops]

    def test_program_stream_replayable(self):
        specs = list(program_stream(7, 12))
        again = list(program_stream(7, 12))
        assert specs == again
        assert [s.profile for s in specs[: len(PROFILE_NAMES)]] == list(PROFILE_NAMES)
        # a spec rebuilds its exact program
        s = specs[3]
        assert [uop_tuple(u) for u in s.build()] == [
            uop_tuple(u) for u in generate_program(s.seed, s.profile)
        ]


class TestDiff:
    def test_grids(self):
        full = default_grid()
        assert len(full) >= 6
        assert {p.kind for p in full} == {"conventional", "arb", "samie"}
        quick = quick_grid()
        assert {p.name for p in quick} <= {p.name for p in full}
        # shared=None and a tiny AddrBuffer are both represented
        params = [dict(p.params) for p in full if p.kind == "samie"]
        assert any(d.get("shared_entries", 8) is None for d in params)
        assert any(d.get("addr_buffer_slots", 64) <= 4 for d in params)

    @pytest.mark.parametrize("point", quick_grid(), ids=lambda p: p.name)
    def test_model_matches_oracle_on_small_program(self, point):
        prog = mk_program(
            ("store", 0x1000, 8), ("load", 0x1000, 8),
            ("store", 0x1004, 4), ("load", 0x1000, 8), ("alu",),
        )
        golden = oracle.execute(prog)
        out = run_model(prog, point)
        assert compare_outcome(out, golden, len(prog)) is None
        assert out.load_values[3] == (0, 0, 0, 0, 2, 2, 2, 2)

    def test_check_program_clean(self):
        assert check_program(generate_program(11, "aliasing"), quick_grid()) is None

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            with inject_fault("definitely-not-a-fault"):
                pass
        assert "no-store-forwarding" in FAULTS

    def test_injected_forwarding_bug_detected(self):
        # A store whose data arrives late (src2 chained to two dependent
        # multiplies) followed by a load of the same bytes: with forwarding
        # disabled the load races ahead and reads stale memory.
        prog = [
            UOp(0, 0x400000, OpClass.INT_MULT),
            UOp(1, 0x400004, OpClass.INT_MULT, src1=1),
            UOp(2, 0x400008, OpClass.STORE, src2=1, addr=0x1000, size=8),
            UOp(3, 0x40000C, OpClass.LOAD, addr=0x1000, size=8),
        ]
        assert check_program(prog, quick_grid()) is None
        div = check_program(prog, quick_grid(), fault="no-store-forwarding")
        assert div is not None
        assert div.reason in ("internal-oracle", "load-value")

    def test_minimizer_shrinks_and_preserves_failure(self):
        spec = ProgramSpec(index=0, seed=21, profile="aliasing")
        div = diff_program(spec, quick_grid(), fault="no-store-forwarding",
                           minimize=True)
        if div is None:  # this seed happens to dodge the fault: pick by scan
            for s in program_stream(5, 30):
                div = diff_program(s, quick_grid(), fault="no-store-forwarding",
                                   minimize=True)
                if div is not None:
                    break
        assert div is not None, "fault injection produced no divergence at all"
        assert 0 < div.minimized_len <= div.program_len
        # the minimized program is self-contained and still fails
        small = [uop_from_tuple(t) for t in div.minimized_program]
        point = next(p for p in quick_grid() if p.name == div.point)
        assert check_program(small, (point,), fault="no-store-forwarding") is not None
        # ... and is clean without the fault (the bug is in the model, not
        # the program)
        assert check_program(small, (point,)) is None

    def test_divergence_replayable_from_seed(self):
        for s in program_stream(5, 30):
            div = diff_program(s, quick_grid(), fault="no-store-forwarding",
                               minimize=False)
            if div is not None:
                replay = ProgramSpec(index=0, seed=div.seed, profile=div.profile)
                rediv = check_program(replay.build(), quick_grid(),
                                      fault="no-store-forwarding")
                assert rediv is not None and rediv.point == div.point
                assert str(div.seed) in div.replay_hint
                return
        pytest.fail("fault injection produced no divergence in 30 programs")


class TestCampaign:
    def test_smoke_campaign_clean(self):
        # ~50 programs through the quick grid must find zero divergences
        rep = run_campaign(CampaignConfig(programs=50, seed=3, jobs=1,
                                          grid="quick", minimize=False))
        assert rep.ok and rep.divergences == [] and rep.programs == 50
        assert len(rep.grid_points) == len(quick_grid())

    def test_parallel_workers(self):
        rep = run_campaign(CampaignConfig(programs=6, seed=9, jobs=2,
                                          grid="quick", minimize=False))
        assert rep.ok and rep.jobs == 2

    def test_injected_fault_found_and_reported(self):
        rep = run_campaign(CampaignConfig(programs=12, seed=7, jobs=1,
                                          grid="quick",
                                          fault="no-store-forwarding"))
        assert not rep.ok
        d = rep.divergences[0]
        assert d["seed"] > 0 and d["profile"] in PROFILE_NAMES
        assert d["minimized_len"] <= d["program_len"]
        assert "replay" in d["replay_hint"]

    def test_report_json_round_trip(self):
        rep = run_campaign(CampaignConfig(programs=4, seed=1, jobs=1,
                                          grid="quick", minimize=False))
        blob = json.loads(rep.to_json())
        assert blob["ok"] is True and blob["grid"] == "quick"
        assert set(blob["grid_points"]) == {p.name for p in quick_grid()}

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(programs=1, grid="nope"))
        assert set(GRIDS) == {"default", "quick"}

    @pytest.mark.slow_fuzz
    def test_long_campaign_default_grid(self):
        """The documented gate at reduced scale; REPRO_FUZZ=1 enables it."""
        rep = run_campaign(CampaignConfig(programs=300, seed=17, jobs=4,
                                          grid="default", minimize=False))
        assert rep.ok, rep.summary_text()


class TestDivergenceArtifacts:
    """Diverging programs are emitted as replayable .uoptrace artifacts."""

    def _campaign_with_artifacts(self, tmp_path, jobs=1):
        return run_campaign(CampaignConfig(
            programs=12, seed=7, jobs=jobs, grid="quick",
            fault="no-store-forwarding", minimize=False,
            artifact_dir=str(tmp_path / "artifacts"),
        ))

    def test_artifact_written_and_reported(self, tmp_path):
        import os

        rep = self._campaign_with_artifacts(tmp_path)
        assert not rep.ok
        d = rep.divergences[0]
        assert d["artifact"].endswith(".uoptrace")
        assert os.path.exists(d["artifact"])
        assert d["artifact"] in rep.summary_text()
        # one artifact per diverging program
        files = os.listdir(tmp_path / "artifacts")
        assert len(files) == rep.divergences_total

    def test_artifact_round_trips_to_same_divergence(self, tmp_path):
        from repro.trace.format import TraceStream
        from repro.verify.fuzz import ProgramSpec

        rep = self._campaign_with_artifacts(tmp_path)
        d = rep.divergences[0]
        with TraceStream(d["artifact"]) as r:
            program = list(r)
            meta = r.meta
        # the trace is the generator's program, byte for byte
        spec = ProgramSpec(index=meta["index"], seed=meta["seed"],
                           profile=meta["profile"])
        assert [u.as_tuple() for u in spec.build()] == [
            u.as_tuple() for u in program
        ]
        # and replaying it (no generator involved) reproduces the
        # divergence the campaign recorded
        rediv = check_program(program, GRIDS[meta["grid"]](), fault=meta["fault"])
        assert rediv is not None
        assert rediv.point == d["point"] and rediv.reason == d["reason"]
        assert meta["replay_hint"] == d["replay_hint"]

    def test_artifacts_from_parallel_workers(self, tmp_path):
        import os

        rep = self._campaign_with_artifacts(tmp_path, jobs=2)
        assert not rep.ok
        for d in rep.divergences:
            assert os.path.exists(d["artifact"])

    def test_no_artifacts_without_dir(self):
        rep = run_campaign(CampaignConfig(
            programs=12, seed=7, jobs=1, grid="quick",
            fault="no-store-forwarding", minimize=False,
        ))
        assert all(d["artifact"] == "" for d in rep.divergences)

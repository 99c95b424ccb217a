"""Tests for the declarative scenario catalog (repro.scenarios).

Covers the contracts the refactor promises:

* scenario determinism -- the same spec + seed always compiles to a
  bit-identical uop stream;
* canonical-JSON identity -- a catalog name and the equivalent inline
  ``scenario:{json}`` doc share one cache key, and that key is frozen;
* phase-switch boundary exactness for loop and hold schedules;
* interleaved-program fairness and producer-distance remap validity;
* the verify fuzzer adapter -- legacy profiles stay byte-identical and
  scenario-named programs honour the word-granularity contract;
* pre-existing workload cache keys stay byte-stable under the refactor
  (hardcoded golden IDs from before the scenarios package existed).
"""

import hashlib
import json

import pytest

from repro.experiments.runner import (
    MACHINE_CONV128,
    MACHINE_SAMIE,
    SimSpec,
    lsq_spec,
    run_spec,
)
from repro.isa.opclasses import OpClass
from repro.scenarios import (
    CATALOG,
    PhaseSpec,
    Scenario,
    ScenarioProgram,
    UnknownScenarioError,
    canonical_json,
    canonical_scenario_name,
    catalog_names,
    get_scenario,
    has_scenario,
    scenario_from_doc,
    scenario_stream,
)
from repro.workloads.registry import (
    UnknownWorkloadError,
    get_workload,
    has_workload,
    make_trace,
)

PING_PONG_INLINE = "scenario:" + json.dumps({
    "programs": [{"schedule": "loop", "phases": [
        {"stressor": "aliasing_storm", "length": 2500},
        {"stressor": "pointer_chase", "length": 2500},
    ]}],
})


def stream_tuples(spec: str, n: int, seed: int = 1) -> list[tuple]:
    return [u.as_tuple() for u in scenario_stream(spec, seed=seed).take(n)]


class TestScenarioModel:
    def test_unknown_stressor_rejected(self):
        with pytest.raises(UnknownScenarioError, match="available"):
            PhaseSpec("alias_storm")

    def test_bad_intensity_rejected(self):
        with pytest.raises(ValueError, match="intensity"):
            PhaseSpec("aliasing_storm", intensity="extreme")

    def test_endless_phase_only_final(self):
        with pytest.raises(ValueError, match="final phase"):
            ScenarioProgram(phases=(
                PhaseSpec("aliasing_storm", length=0),
                PhaseSpec("pointer_chase", length=100),
            ))

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            ScenarioProgram(
                phases=(PhaseSpec("aliasing_storm"),), schedule="random")

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError, match="n_blocks"):
            PhaseSpec("bank_conflict", params={"n_blocks": 9999})
        with pytest.raises(ValueError, match="param"):
            PhaseSpec("bank_conflict", params={"warp_speed": 1})

    def test_unknown_doc_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            scenario_from_doc({"programs": [], "phases": []})
        with pytest.raises(ValueError, match="unknown phase keys"):
            scenario_from_doc({"programs": [{"phases": [
                {"stressor": "aliasing_storm", "lenght": 10}]}]})

    def test_doc_round_trip_preserves_identity(self):
        for name in catalog_names():
            scn = get_scenario(name)
            rebuilt = scenario_from_doc(scn.doc())
            assert canonical_json(rebuilt) == canonical_json(scn), name

    def test_name_and_note_excluded_from_identity(self):
        a = Scenario(name="a", note="first",
                     programs=(ScenarioProgram(
                         phases=(PhaseSpec("tlb_thrash"),)),))
        b = Scenario(name="b", note="second",
                     programs=(ScenarioProgram(
                         phases=(PhaseSpec("tlb_thrash"),)),))
        assert canonical_json(a) == canonical_json(b)

    def test_catalog_suggestions(self):
        with pytest.raises(UnknownScenarioError, match="smt_mix"):
            get_scenario("smt_mixx")


class TestDeterminism:
    def test_single_program_bit_identical(self):
        a = stream_tuples("scenario:phase_ping_pong", 3000)
        b = stream_tuples("scenario:phase_ping_pong", 3000)
        assert a == b

    def test_interleaved_bit_identical(self):
        a = stream_tuples("scenario:smt_storm", 3000, seed=7)
        b = stream_tuples("scenario:smt_storm", 3000, seed=7)
        assert a == b

    def test_seed_changes_stream(self):
        assert stream_tuples("scenario:smt_mix", 500, seed=1) != \
            stream_tuples("scenario:smt_mix", 500, seed=2)

    def test_seq_dense(self):
        uops = scenario_stream("scenario:smt_mix", seed=1).take(1000)
        assert [u.seq for u in uops] == list(range(1000))


class TestCanonicalIdentity:
    def test_inline_equals_catalog_name(self):
        assert canonical_scenario_name(PING_PONG_INLINE) == \
            canonical_scenario_name("scenario:phase_ping_pong")

    def test_canonical_is_fixpoint(self):
        cj = canonical_scenario_name("scenario:smt_mix")
        assert canonical_scenario_name(cj) == cj

    def test_ping_pong_identity_frozen(self):
        # guard: the canonical JSON (and thus every scenario cache key)
        # must not drift without a deliberate DOC_VERSION decision
        cj = canonical_scenario_name("scenario:phase_ping_pong")
        digest = hashlib.sha256(cj.encode()).hexdigest()[:16]
        assert digest == "a6fabd305980e91f", cj

    def test_inline_and_named_share_cache_id(self):
        named = SimSpec.make(
            "scenario:phase_ping_pong", MACHINE_SAMIE, 2000, 500)
        inline = SimSpec.make(PING_PONG_INLINE, MACHINE_SAMIE, 2000, 500)
        assert named.cache_id == inline.cache_id
        assert named.key == inline.key

    def test_scenario_seed_stays_in_key(self):
        a = SimSpec.make("scenario:smt_mix", MACHINE_SAMIE, 2000, 500, seed=1)
        b = SimSpec.make("scenario:smt_mix", MACHINE_SAMIE, 2000, 500, seed=2)
        assert a.cache_id != b.cache_id


class TestCacheKeyStability:
    """Golden IDs captured before the scenarios package existed."""

    GOLDEN = {
        ("gzip", "samie"): "f86499b022f68954bd34d594e485da1aa36fba95",
        ("ammp", "conv128"): "c2b13f7cea338895ec0265a2448fb8c0d6de2488",
        ("mcf", "arb"): "b91654173768c4952b7fda6b6224970a8c8ab865",
    }

    def test_existing_workload_cache_ids_byte_stable(self):
        s1 = SimSpec.make("gzip", MACHINE_SAMIE, 6000, 1000)
        s2 = SimSpec.make("ammp", MACHINE_CONV128, 6000, 1000, seed=7)
        s3 = SimSpec.make(
            "mcf", ("arb-default", lsq_spec("arb")), 2000, 500,
            sample=(2000, 300, 500), mem={"mshr_entries": 4})
        assert s1.cache_id == self.GOLDEN[("gzip", "samie")]
        assert s2.cache_id == self.GOLDEN[("ammp", "conv128")]
        assert s3.cache_id == self.GOLDEN[("mcf", "arb")]

    def test_existing_workload_key_shape_unchanged(self):
        spec = SimSpec.make("gzip", MACHINE_SAMIE, 6000, 1000)
        assert spec.key == ("gzip", "samie", 6000, 1000, 1, "", "", "", "")


class TestPhaseSwitching:
    def test_loop_schedule_exact_boundaries(self):
        stream = scenario_stream("scenario:phase_ping_pong", seed=1)
        stream.take(10000)
        assert stream.switch_points() == [
            (2500, 0, 1), (5000, 0, 0), (7500, 0, 1)]

    def test_hold_schedule_single_shift(self):
        stream = scenario_stream("scenario:warmup_shift", seed=1)
        stream.take(6000)
        assert stream.switch_points() == [(4000, 0, 1)]
        assert stream.phase_counts() == [[4000, 2000]]

    def test_atomic_scenarios_never_switch(self):
        stream = scenario_stream("scenario:aliasing_storm", seed=1)
        stream.take(2000)
        assert stream.switch_points() == []
        assert stream.phase_counts() == [[2000]]

    def test_phase_counts_sum_to_consumed(self):
        stream = scenario_stream("scenario:phase_tour", seed=3)
        stream.take(7777)
        assert sum(sum(p) for p in stream.phase_counts()) == 7777


class TestInterleaving:
    @staticmethod
    def owner(seq: int, interleave: int, n_programs: int) -> int:
        return (seq // interleave) % n_programs

    def test_round_robin_fairness(self):
        stream = scenario_stream("scenario:smt_mix", seed=1)
        stream.take(4000)
        counts = [sum(p) for p in stream.phase_counts()]
        assert sum(counts) == 4000
        assert max(counts) - min(counts) <= get_scenario("smt_mix").interleave

    def test_three_way_fairness(self):
        stream = scenario_stream("scenario:smt_storm", seed=1)
        stream.take(3000)
        counts = [sum(p) for p in stream.phase_counts()]
        assert max(counts) - min(counts) <= get_scenario("smt_storm").interleave

    def test_producer_distances_stay_in_program(self):
        scn = get_scenario("smt_mix")
        k, n = scn.interleave, len(scn.programs)
        for uop in scenario_stream("scenario:smt_mix", seed=5).take(4000):
            for dist in (uop.src1, uop.src2):
                if dist:
                    assert dist <= uop.seq
                    assert self.owner(uop.seq - dist, k, n) == \
                        self.owner(uop.seq, k, n), uop

    def test_programs_occupy_private_pc_ranges(self):
        from repro.scenarios.model import PC_PROGRAM_SPACING

        scn = get_scenario("smt_mix")
        k, n = scn.interleave, len(scn.programs)
        pcs_by_prog = [set() for _ in range(n)]
        for uop in scenario_stream("scenario:smt_mix", seed=1).take(2000):
            pcs_by_prog[self.owner(uop.seq, k, n)].add(
                uop.pc // PC_PROGRAM_SPACING)
        assert not (pcs_by_prog[0] & pcs_by_prog[1])


class TestRegistryIntegration:
    def test_has_workload_routes_scenarios(self):
        assert has_workload("scenario:smt_mix")
        assert has_workload(PING_PONG_INLINE)
        assert not has_workload("scenario:nope")

    def test_make_trace_compiles_scenario(self):
        trace = make_trace("scenario:aliasing_storm", seed=9)
        uops = [next(trace) for _ in range(50)]
        assert [u.seq for u in uops] == list(range(50))

    def test_unknown_workload_valueerror_with_suggestion(self):
        with pytest.raises(ValueError, match="did you mean"):
            get_workload("equakee")
        # the legacy KeyError contract still holds
        with pytest.raises(KeyError, match="available"):
            get_workload("quake3")
        assert issubclass(UnknownWorkloadError, ValueError)
        assert issubclass(UnknownWorkloadError, KeyError)

    def test_unknown_scenario_spec_raises_cleanly(self):
        with pytest.raises(ValueError, match="did you mean: smt_mix"):
            make_trace("scenario:smt_mixx", seed=1)


class TestVerifyAdapter:
    LEGACY_ORDER = ("aliasing", "sizes", "bank_conflict", "branch_storm",
                    "addr_pressure", "mixed")
    # sha256 of the uop_tuple list at seed=2024, captured pre-refactor:
    # the adapter must reproduce legacy programs byte for byte
    LEGACY_DIGESTS = {
        "aliasing": "cbeceb79bbc587a3",
        "sizes": "026d9590939fdbb5",
        "bank_conflict": "c8b2d123dab68309",
        "branch_storm": "a314e97e737b29bd",
        "addr_pressure": "ee99ddb73e2ab896",
        "mixed": "b6dba056cb75fed1",
    }

    def test_legacy_profiles_first_in_order(self):
        from repro.verify.fuzz import PROFILE_NAMES

        assert PROFILE_NAMES[:6] == self.LEGACY_ORDER

    def test_legacy_programs_byte_identical(self):
        from repro.verify.fuzz import generate_program, uop_tuple

        for name, want in self.LEGACY_DIGESTS.items():
            prog = [uop_tuple(u) for u in generate_program(2024, name)]
            got = hashlib.sha256(repr(prog).encode()).hexdigest()[:16]
            assert got == want, name

    def test_scenario_profile_deterministic(self):
        from repro.verify.fuzz import generate_program, uop_tuple

        a = [uop_tuple(u) for u in generate_program(7, "phase_ping_pong")]
        b = [uop_tuple(u) for u in generate_program(7, "phase_ping_pong")]
        assert a == b and 20 <= len(a) <= 120

    def test_scenario_profile_honours_length(self):
        from repro.verify.fuzz import generate_program

        assert len(generate_program(7, "smt_storm", length=64)) == 64

    def test_scenario_accesses_honour_word_contract(self):
        from repro.verify.fuzz import generate_program

        for name in catalog_names():
            for uop in generate_program(11, name, length=200):
                if uop.op in (OpClass.LOAD, OpClass.STORE):
                    assert uop.size in (1, 2, 4, 8)
                    assert uop.addr % uop.size == 0, (name, uop)
                    assert (uop.addr % 8) + uop.size <= 8, (name, uop)

    def test_scenario_through_differential_grid(self):
        from repro.verify.diff import diff_program, quick_grid
        from repro.verify.fuzz import ProgramSpec

        spec = ProgramSpec(index=0, seed=77, profile="smt_mix")
        assert diff_program(spec, quick_grid()) is None


class TestServicePassThrough:
    def test_wire_round_trip_preserves_scenario_identity(self):
        from repro.service.wire import spec_from_doc, spec_to_doc

        spec = SimSpec.make("scenario:smt_mix", MACHINE_SAMIE, 2000, 500)
        back = spec_from_doc(spec_to_doc(spec))
        assert back.key == spec.key
        assert back.cache_id == spec.cache_id

    def test_sampled_run_reports_phases(self):
        res = run_spec(SimSpec.make(
            "scenario:phase_ping_pong", MACHINE_SAMIE, 3000, 0,
            sample=(2000, 300, 500)))
        phases = res.telemetry()["sampling"]["phases"]
        assert phases["switches"] >= 1
        assert sum(sum(p) for p in phases["consumed"]) >= 3000


class TestCatalogCoverage:
    def test_every_catalog_scenario_runs(self):
        for name in catalog_names():
            res = run_spec(SimSpec.make(
                f"scenario:{name}", MACHINE_SAMIE, 600, 100))
            assert res.instructions >= 600, name
            assert res.ipc > 0, name

    def test_catalog_and_scheme_helpers_agree(self):
        assert set(catalog_names()) == set(CATALOG)
        for name in catalog_names():
            assert has_scenario(f"scenario:{name}")

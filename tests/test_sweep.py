"""Tests for the parallel sweep engine (SimSpec, run_many, result store)."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.config import ProcessorConfig
from repro.experiments import runner
from repro.experiments.runner import (
    MACHINE_CONV128,
    MACHINE_SAMIE,
    MACHINE_UNBOUNDED,
    SimSpec,
    build_lsq,
    clear_cache,
    config_token,
    lsq_spec,
    machine_arb,
    machine_samie_unbounded_shared,
    make_mem_config,
    mem_spec,
    parse_mem_overrides,
    run_many,
)
from repro.lsq.arb import ARBLSQ
from repro.lsq.conventional import ConventionalLSQ
from repro.lsq.samie import SamieLSQ
from repro.mem.hierarchy import MemConfig
from repro.service.session import SimService
from repro.service.store import CacheConfig

SMALL = dict(instructions=400, warmup=100)
THREE = ["gzip", "swim", "ammp"]


@pytest.fixture(autouse=True)
def _fresh():
    """Fresh in-process memo of the default session per test."""
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def disk(tmp_path):
    """New sessions over one private store directory.

    Each call is a restart: an empty memo over the same store.  Tests
    that count recomputations need a store no earlier test wrote to.
    """
    cache = CacheConfig(directory=str(tmp_path / "cache"))
    return lambda: SimService(cache=cache)


def _no_store():
    return SimService(cache=CacheConfig(backend="off"))


def _suite_specs(**kw):
    return [
        SimSpec.make(w, m, **SMALL, **kw)
        for w in THREE
        for m in (MACHINE_CONV128, MACHINE_SAMIE)
    ]


class TestLSQSpecs:
    def test_build_lsq_kinds(self):
        assert isinstance(build_lsq(lsq_spec("conventional", capacity=64)), ConventionalLSQ)
        assert build_lsq(MACHINE_UNBOUNDED[1]).capacity is None
        samie = build_lsq(machine_samie_unbounded_shared(32, 4)[1])
        assert isinstance(samie, SamieLSQ)
        assert (samie.cfg.banks, samie.cfg.entries_per_bank) == (32, 4)
        assert samie.cfg.shared_entries is None
        arb = build_lsq(machine_arb(8, 16)[1])
        assert isinstance(arb, ARBLSQ)
        assert (arb.cfg.banks, arb.cfg.addresses_per_bank) == (8, 16)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            build_lsq(lsq_spec("quantum"))

    def test_spec_is_picklable(self):
        import pickle

        spec = SimSpec.make("gzip", MACHINE_SAMIE, 100, 10, cfg=ProcessorConfig())
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.key == spec.key


class TestStableKey:
    def test_config_token_stable_and_canonical(self):
        a = ProcessorConfig(mem=MemConfig(fast_way_hit_latency=1))
        b = ProcessorConfig(mem=MemConfig(fast_way_hit_latency=1))
        assert config_token(a) == config_token(b) != config_token(ProcessorConfig())
        assert config_token(None) == ""
        json.loads(config_token(a))  # canonical JSON, not repr()

    def test_cfg_distinguishes_entries(self):
        cfg = ProcessorConfig(mem=MemConfig(fast_way_hit_latency=1))
        plain = run_many([SimSpec.make("gzip", MACHINE_SAMIE, **SMALL)], jobs=1)[0]
        fast = run_many([SimSpec.make("gzip", MACHINE_SAMIE, **SMALL, cfg=cfg)], jobs=1)[0]
        assert plain is not fast


class TestRunMany:
    def test_parallel_matches_serial(self, disk):
        specs = _suite_specs()
        parallel = run_many(specs, jobs=4, session=disk())
        serial = run_many(specs, jobs=1, session=_no_store())  # real recomputation
        assert parallel == serial  # SimResult dataclass equality, field by field
        assert [r.lsq_name for r in serial[1::2]] == ["samie"] * len(THREE)

    def test_duplicate_specs_computed_once(self, monkeypatch):
        calls = []
        real = runner.run_spec
        monkeypatch.setattr(runner, "run_spec", lambda s: calls.append(s) or real(s))
        spec = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL)
        a, b = run_many([spec, spec], jobs=1, session=_no_store())
        assert a is b
        assert len(calls) == 1

    def test_unknown_workload_raises_before_any_work(self):
        with pytest.raises(KeyError):
            run_many([SimSpec.make("quake3", MACHINE_SAMIE, **SMALL)], jobs=1)

    def test_colliding_machine_keys_rejected(self):
        # same machine_key, different geometry: must refuse rather than
        # serve one spec the other's (memoised or persisted) result
        a = SimSpec.make("gzip", ("dup", lsq_spec("samie", banks=64)), **SMALL)
        b = SimSpec.make("gzip", ("dup", lsq_spec("samie", banks=32)), **SMALL)
        with pytest.raises(ValueError, match="uniquely"):
            run_many([a, b], jobs=1)

    def test_machine_arb_key_encodes_max_inflight(self):
        assert machine_arb(8, 16, 128)[0] == "arb-8x16"
        assert machine_arb(8, 16, 64)[0] == "arb-8x16-if64"
        assert machine_arb(8, 16, 64)[0] != machine_arb(8, 16, 128)[0]

    def test_jobs_zero_means_all_cores(self):
        assert runner.resolve_jobs(0) == (os.cpu_count() or 1)
        assert runner.resolve_jobs(None) == (os.cpu_count() or 1)
        assert runner.resolve_jobs(3) == 3


class TestDiskCache:
    def test_round_trip_without_recompute(self, monkeypatch, disk):
        specs = _suite_specs()
        first = run_many(specs, jobs=1, session=disk())
        # a recompute would now blow up: only the disk can serve these
        monkeypatch.setattr(
            runner, "run_spec", lambda s: (_ for _ in ()).throw(AssertionError("recomputed"))
        )
        second = run_many(specs, jobs=1, session=disk())
        assert first == second
        assert all(a is not b for a, b in zip(first, second))

    def test_invalidates_on_scale_change(self, monkeypatch, disk):
        spec_small = SimSpec.make("gzip", MACHINE_SAMIE, 400, 100)
        run_many([spec_small], jobs=1, session=disk())
        calls = []
        real = runner.run_spec
        monkeypatch.setattr(runner, "run_spec", lambda s: calls.append(s) or real(s))
        bigger = run_many([SimSpec.make("gzip", MACHINE_SAMIE, 600, 100)], jobs=1,
                          session=disk())[0]
        assert len(calls) == 1  # different scale: disk entry must not be served
        assert 600 <= bigger.instructions < 610

    def test_corrupt_entry_recomputed(self, disk):
        spec = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL)
        session = disk()
        first = run_many([spec], jobs=1, session=session)[0]
        path = session.store.path_for(spec.key)
        assert path is not None and os.path.exists(path)
        with open(path, "w") as fh:
            fh.write("{not json")
        again = run_many([spec], jobs=1, session=disk())[0]
        assert again == first

    def test_off_backend_writes_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))  # the default store's home
        session = _no_store()
        spec = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL)
        assert session.store.path_for(spec.key) is None
        run_many([spec], jobs=1, session=session)
        assert os.listdir(tmp_path) == []

    def test_store_clear(self, disk):
        session = disk()
        run_many([SimSpec.make("gzip", MACHINE_SAMIE, **SMALL)], jobs=1, session=session)
        assert session.store.clear() == (1, 0, 0)  # one entry, no stale/tmp
        assert session.store.clear() == (0, 0, 0)

    def test_stale_version_entry_deleted_on_load(self, disk):
        spec = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL)
        session = disk()
        first = run_many([spec], jobs=1, session=session)[0]
        path = session.store.path_for(spec.key)
        with open(path) as fh:
            doc = json.load(fh)
        doc["version"] = runner.CACHE_VERSION - 1
        with open(path, "w") as fh:
            json.dump(doc, fh)
        again = run_many([spec], jobs=1, session=disk())[0]  # stale entry deleted, recomputed
        assert again == first
        with open(path) as fh:
            assert json.load(fh)["version"] == runner.CACHE_VERSION

    def test_store_clear_reports_stale_entries(self, disk):
        spec = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL)
        session = disk()
        run_many([spec], jobs=1, session=session)
        path = session.store.path_for(spec.key)
        with open(path) as fh:
            doc = json.load(fh)
        doc["version"] = runner.CACHE_VERSION - 1
        with open(path, "w") as fh:
            json.dump(doc, fh)
        # a second, current-version entry alongside the stale one
        run_many([SimSpec.make("swim", MACHINE_SAMIE, **SMALL)], jobs=1, session=session)
        cleared = session.store.clear()
        assert cleared.removed == 2
        assert cleared.stale == 1


class TestMemConfigKeys:
    """MemConfig overrides are part of the cache identity (CACHE_VERSION 3)."""

    @pytest.mark.parametrize("field,value", [
        ("mshr_entries", 4),
        ("mshr_targets", 2),
        ("l1d_sets", 128),
        ("l1d_ways", 2),
        ("l1d_line", 64),
        ("l1d_latency", 3),
        ("l1d_ports", 2),
        ("l2_hit_latency", 12),
        ("l2_miss_latency", 150),
        ("tlb_entries", 64),
        ("tlb_miss_latency", 40),
        ("l1i_size", 32 * 1024),
    ])
    def test_every_mem_field_changes_the_key(self, field, value):
        base = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL)
        overridden = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL,
                                  mem=mem_spec(**{field: value}))
        assert base.key != overridden.key
        assert base.cache_id != overridden.cache_id

    def test_distinct_overrides_distinct_keys(self):
        a = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL, mem=mem_spec(mshr_entries=4))
        b = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL, mem=mem_spec(mshr_entries=8))
        assert a.key != b.key

    def test_mem_override_misses_disk_cache(self, monkeypatch, disk):
        base = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL)
        run_many([base], jobs=1, session=disk())
        calls = []
        real = runner.run_spec
        monkeypatch.setattr(runner, "run_spec", lambda s: calls.append(s) or real(s))
        spec = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL, mem=mem_spec(mshr_entries=4))
        run_many([spec], jobs=1, session=disk())
        assert len(calls) == 1  # override must not be served the base entry

    def test_unknown_mem_field_rejected(self):
        with pytest.raises(ValueError, match="unknown MemConfig field"):
            mem_spec(l3_size=1)

    def test_conflicting_ways_and_assoc_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            mem_spec(l1d_ways=8, l1d_assoc=2)

    def test_validate_mem_spec_rejects_bad_values(self):
        from repro.experiments.runner import validate_mem_spec

        with pytest.raises(ValueError):
            validate_mem_spec(mem_spec(mshr_entries=0))
        with pytest.raises(ValueError):
            validate_mem_spec(mem_spec(l1d_sets=100))  # not a power of two
        validate_mem_spec(mem_spec(l1d_sets=128, mshr_entries=4))  # fine

    def test_cli_rejects_bad_mem_values_cleanly(self, capsys):
        from repro.cli import main

        assert main(["run", "gzip", "--mem", "mshr_entries=0"]) == 2
        assert main(["run", "gzip", "--mem", "l1d_sets=100"]) == 2
        err = capsys.readouterr().err
        assert "MSHR" in err and "power of two" in err
        assert "Traceback" not in err

    def test_parse_mem_overrides(self):
        assert parse_mem_overrides("mshr_entries=4, l1d_sets=128") == (
            ("l1d_sets", 128), ("mshr_entries", 4),
        )
        with pytest.raises(ValueError, match="key=value"):
            parse_mem_overrides("mshr_entries")
        with pytest.raises(ValueError, match="integer"):
            parse_mem_overrides("mshr_entries=four")
        with pytest.raises(ValueError, match="no overrides"):
            parse_mem_overrides(" , ")

    def test_make_mem_config_sets_sugar(self):
        cfg = make_mem_config(mem_spec(l1d_sets=32))
        assert cfg.l1d_size == 32 * cfg.l1d_assoc * cfg.l1d_line
        cfg2 = make_mem_config(mem_spec(l1d_sets=32, l1d_ways=8, l1d_line=64))
        assert (cfg2.l1d_size, cfg2.l1d_assoc, cfg2.l1d_line) == (32 * 8 * 64, 8, 64)

    def test_mem_spec_is_picklable_and_canonical(self):
        import pickle

        spec = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL,
                            mem={"mshr_entries": 4, "l1d_sets": 128})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.key == spec.key
        # dict and tuple forms canonicalise identically
        via_tuple = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL,
                                 mem=mem_spec(l1d_sets=128, mshr_entries=4))
        assert via_tuple.key == spec.key

    def test_cache_version_bump_evicts_old_entries(self, monkeypatch, disk):
        # persist an entry under the previous CACHE_VERSION and verify the
        # current engine recomputes instead of serving it
        spec = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL)
        current = runner.CACHE_VERSION
        monkeypatch.setattr(runner, "CACHE_VERSION", current - 1)
        session = disk()
        old = run_many([spec], jobs=1, session=session)[0]
        old_path = session.store.path_for(spec.key)
        assert os.path.exists(old_path)
        monkeypatch.setattr(runner, "CACHE_VERSION", current)
        calls = []
        real = runner.run_spec
        monkeypatch.setattr(runner, "run_spec", lambda s: calls.append(s) or real(s))
        session = disk()
        again = run_many([spec], jobs=1, session=session)[0]
        assert len(calls) == 1  # the v(n-1) entry was not served
        assert again == old  # same simulation semantics either way
        assert session.store.path_for(spec.key) != old_path  # distinct identity


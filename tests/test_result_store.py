"""Shared conformance suite for every ``ResultStore`` backend.

The same test class runs against :class:`LocalDirStore` and
:class:`MemoryStore` (parametrized fixture): the store contract --
bit-identical round trips, stale/corrupt entries never served, atomic
concurrent writes, honest ``clear``/``info`` accounting -- must hold for
any backend a session can be configured with.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.experiments import runner
from repro.experiments.runner import MACHINE_SAMIE, SimSpec
from repro.service.store import (
    CacheClearance,
    CacheConfig,
    LocalDirStore,
    MemoryStore,
    NullStore,
    build_store,
    content_address,
)

SMALL = dict(instructions=400, warmup=100)


@pytest.fixture(scope="module")
def computed():
    """One real (spec, result) pair, computed once for the whole module."""
    spec = SimSpec.make("gzip", MACHINE_SAMIE, **SMALL)
    return spec, runner.run_spec(spec)


@pytest.fixture(params=["local", "memory"])
def store(request, tmp_path):
    if request.param == "local":
        return LocalDirStore(str(tmp_path / "cache"))
    return MemoryStore()


class TestConformance:
    """Contract tests every backend must pass."""

    def test_miss_returns_none(self, store, computed):
        spec, _ = computed
        assert store.get(spec.key) is None
        assert store.get_by_address(spec.cache_id) is None

    def test_round_trip_is_equal_and_fresh(self, store, computed):
        spec, result = computed
        store.put(spec.key, result)
        served = store.get(spec.key)
        assert served == result  # dataclass equality, field by field
        assert served is not result  # always a fresh object
        # a second get must not hand back the first get's object either
        assert store.get(spec.key) is not served

    def test_get_by_address(self, store, computed):
        spec, result = computed
        store.put(spec.key, result)
        assert store.get_by_address(spec.cache_id) == result
        assert store.get_by_address(content_address(spec.key)) == result

    def test_addresses_lists_entries(self, store, computed):
        spec, result = computed
        assert list(store.addresses()) == []
        store.put(spec.key, result)
        assert list(store.addresses()) == [spec.cache_id]

    def test_stale_version_reads_as_miss_and_is_reclaimed(
        self, store, computed, monkeypatch
    ):
        spec, result = computed
        current = runner.CACHE_VERSION
        monkeypatch.setattr(runner, "CACHE_VERSION", current - 1)
        store.put(spec.key, result)
        old_address = spec.cache_id
        assert store.get(spec.key) is not None
        monkeypatch.setattr(runner, "CACHE_VERSION", current)
        # the key now hashes to a different address; probe the old entry
        # directly: a stale generation must read as a miss and be reclaimed
        assert store.get_by_address(old_address) is None
        assert old_address not in list(store.addresses())

    def test_clear_counts_and_idempotence(self, store, computed):
        spec, result = computed
        store.put(spec.key, result)
        cleared = store.clear()
        assert isinstance(cleared, CacheClearance)
        assert cleared == (1, 0, 0)
        assert store.get(spec.key) is None
        assert store.clear() == (0, 0, 0)

    def test_clear_reports_stale_subset(self, store, computed, monkeypatch):
        spec, result = computed
        current = runner.CACHE_VERSION
        monkeypatch.setattr(runner, "CACHE_VERSION", current - 1)
        store.put(spec.key, result)
        monkeypatch.setattr(runner, "CACHE_VERSION", current)
        store.put(spec.key, result)  # fresh entry alongside the stale one
        assert store.clear() == (2, 1, 0)

    def test_info_counts_servable_and_stale(self, store, computed, monkeypatch):
        spec, result = computed
        info = store.info()
        assert (info.entries, info.stale, info.bytes) == (0, 0, 0)
        current = runner.CACHE_VERSION
        monkeypatch.setattr(runner, "CACHE_VERSION", current - 1)
        store.put(spec.key, result)
        monkeypatch.setattr(runner, "CACHE_VERSION", current)
        store.put(spec.key, result)
        info = store.info()
        assert (info.entries, info.stale) == (1, 1)
        assert info.bytes > 0
        assert "servable" in info.describe() and "stale" in info.describe()

    def test_concurrent_writers_leave_one_valid_entry(self, store, computed):
        spec, result = computed
        start = threading.Barrier(8)

        def writer():
            start.wait()
            for _ in range(5):
                store.put(spec.key, result)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.get(spec.key) == result
        assert list(store.addresses()) == [spec.cache_id]

    def test_wrong_key_at_address_is_a_miss(self, store, computed):
        # a key-hash collision must never serve the other key's result
        spec, result = computed
        other = SimSpec.make("swim", MACHINE_SAMIE, **SMALL)
        store.put(spec.key, result)
        moved = {spec.cache_id: other.cache_id}
        if isinstance(store, MemoryStore):
            store._docs[moved[spec.cache_id]] = store._docs.pop(spec.cache_id)
        else:
            os.replace(store.path_for(spec.key), store.path_for(other.key))
        assert store.get(other.key) is None


class TestLocalDirStore:
    """Disk-specific behaviour: torn files, path hygiene, migration."""

    def test_corrupt_entry_is_a_miss_and_discarded(self, tmp_path, computed):
        spec, result = computed
        store = LocalDirStore(str(tmp_path))
        store.put(spec.key, result)
        path = store.path_for(spec.key)
        with open(path, "w") as fh:
            fh.write("{torn mid-wri")
        assert store.get(spec.key) is None
        assert not os.path.exists(path)

    def test_tmp_turds_invisible_to_clear_and_info(self, tmp_path, computed):
        spec, result = computed
        store = LocalDirStore(str(tmp_path))
        store.put(spec.key, result)
        # a crashed writer leaves a .tmp file; it must not be counted
        turd = os.path.join(str(tmp_path), "." + spec.cache_id + ".json.abc.tmp")
        with open(turd, "w") as fh:
            fh.write('{"version"')
        assert store.info().entries == 1
        # a fresh .tmp may belong to a live put(): clear leaves it alone
        assert store.clear() == (1, 0, 0)
        assert os.path.exists(turd)

    def test_clear_reaps_abandoned_tmp_files(self, tmp_path, computed):
        from repro.service import store as store_mod

        spec, result = computed
        store = LocalDirStore(str(tmp_path))
        store.put(spec.key, result)
        old = os.path.join(str(tmp_path), "." + spec.cache_id + ".json.old.tmp")
        fresh = os.path.join(str(tmp_path), "." + spec.cache_id + ".json.new.tmp")
        for turd in (old, fresh):
            with open(turd, "w") as fh:
                fh.write('{"version"')
        # age one turd past the reap horizon; the fresh one must survive
        import time as _time

        stale_when = _time.time() - store_mod._TMP_REAP_AGE - 10
        os.utime(old, (stale_when, stale_when))
        clearance = store.clear()
        assert clearance == CacheClearance(removed=1, stale=0, tmp=1)
        assert not os.path.exists(old)
        assert os.path.exists(fresh)

    def test_address_never_reaches_filesystem_as_path(self, tmp_path):
        store = LocalDirStore(str(tmp_path))
        assert store.get_by_address("../../etc/passwd") is None
        assert store.get_by_address("no-such") is None

    def test_missing_directory_is_empty_not_an_error(self, tmp_path):
        store = LocalDirStore(str(tmp_path / "never-created"))
        assert store.info() == (store.backend, store.directory, 0, 0, 0)
        assert store.clear() == (0, 0, 0)
        assert list(store.addresses()) == []

    def test_migration_compatible_with_preservice_layout(self, tmp_path, computed):
        # the pre-service runner wrote {"version", "key", "result"} at
        # sha1([CACHE_VERSION, *key]).json; such a file must be served
        spec, result = computed
        path = tmp_path / (spec.cache_id + ".json")
        path.write_text(json.dumps({
            "version": runner.CACHE_VERSION,
            "key": list(spec.key),
            "result": result.to_dict(),
        }))
        store = LocalDirStore(str(tmp_path))
        assert store.get(spec.key) == result


class TestNullStore:
    def test_everything_is_a_nop(self, computed):
        spec, result = computed
        store = NullStore()
        store.put(spec.key, result)
        assert store.get(spec.key) is None
        assert store.get_by_address(spec.cache_id) is None
        assert store.clear() == (0, 0, 0)
        assert store.info().entries == 0


class TestCacheConfig:
    def test_backend_validated(self):
        with pytest.raises(ValueError, match="unknown cache backend"):
            CacheConfig(backend="redis")

    def test_build_store_mapping(self, tmp_path):
        assert isinstance(build_store(CacheConfig(backend="off")), NullStore)
        assert isinstance(build_store(CacheConfig(backend="memory")), MemoryStore)
        local = build_store(CacheConfig(backend="local", directory=str(tmp_path)))
        assert isinstance(local, LocalDirStore)
        assert local.directory == str(tmp_path)

    def test_resolved_dir_default_and_non_local(self):
        assert CacheConfig().resolved_dir().endswith("samie-repro")
        assert CacheConfig(backend="memory").resolved_dir() is None

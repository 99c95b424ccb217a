"""Content-addressed result stores behind one ``ResultStore`` interface.

The sweep fabric treats a finished :class:`~repro.core.pipeline.SimResult`
as an immutable document addressed by the canonical-JSON cache key of the
:class:`~repro.experiments.runner.SimSpec` that produced it (the *content
address*).  This module owns everything below that address:

* :class:`ResultStore` -- the abstract contract (``get``/``put``/
  ``get_by_address``/``clear``/``info``).  Implementations must be safe
  under concurrent writers and must self-heal stale or torn entries on
  read; the shared conformance suite in ``tests/test_result_store.py``
  enforces the contract against every backend.
* :class:`LocalDirStore` -- one JSON file per entry in a local directory,
  byte-compatible with the on-disk layout the pre-service
  ``experiments/runner.py`` wrote (existing caches keep working).  Writes
  are atomic (write-temp-then-``os.replace``), so two workers racing on
  the same key can never leave a torn entry.
* :class:`MemoryStore` -- the same contract in a dict; entries take the
  identical JSON round trip so a result served from memory is
  bit-identical to one served from disk after a restart.
* :class:`NullStore` -- caching disabled; every lookup misses.

Configuration is explicit: build a :class:`CacheConfig` and hand it (or a
ready store) to :class:`~repro.service.session.SimService`; a session
given neither uses ``CacheConfig()``, the local store under
``~/.cache/samie-repro``.  No ``REPRO_*`` environment variable selects
or relocates a store.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.core.pipeline import SimResult


def current_cache_version() -> int:
    """The live ``CACHE_VERSION`` (read per call, so tests can patch it).

    The version lives in ``repro.experiments.runner`` next to the key
    schema it protects; importing it lazily keeps this module free of an
    import cycle (the runner imports this module at load time).
    """
    from repro.experiments import runner

    return runner.CACHE_VERSION


def content_address(key: tuple, version: int | None = None) -> str:
    """Filesystem-safe digest naming one (version, key) result document."""
    if version is None:
        version = current_cache_version()
    payload = json.dumps([version, *key], sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()


class CacheClearance(NamedTuple):
    """What :meth:`ResultStore.clear` removed.

    ``removed`` counts every deleted entry; ``stale`` counts the subset
    written by an abandoned ``CACHE_VERSION`` (or unreadable outright),
    which could never have been served again.  ``tmp`` counts reaped
    write-temp turds (``*.tmp`` files a crashed writer left behind, old
    enough that no live ``put`` can still own them); only directory
    stores can have any.
    """

    removed: int
    stale: int
    tmp: int = 0


class StoreInfo(NamedTuple):
    """Snapshot of a store's contents (``repro cache info``)."""

    backend: str
    location: str
    entries: int
    stale: int
    bytes: int

    def describe(self) -> str:
        lines = [
            f"backend:  {self.backend}",
            f"location: {self.location}",
            f"entries:  {self.entries} servable"
            + (f" (+{self.stale} stale)" if self.stale else ""),
            f"size:     {self.bytes} bytes",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class CacheConfig:
    """Explicit result-store configuration for a session or CLI verb.

    ``backend`` is one of ``"local"`` (JSON files under ``directory``,
    the default), ``"memory"`` (process-lifetime dict) or ``"off"`` (no
    result persistence).  ``directory=None`` means the default location,
    ``~/.cache/samie-repro``.
    """

    backend: str = "local"
    directory: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("local", "memory", "off"):
            raise ValueError(
                f"unknown cache backend {self.backend!r}; "
                "choose local, memory or off"
            )

    def resolved_dir(self) -> str | None:
        """The directory a ``local`` store would use (``None`` otherwise)."""
        if self.backend != "local":
            return None
        return self.directory or os.path.join(
            os.path.expanduser("~"), ".cache", "samie-repro"
        )


class ResultStore:
    """Abstract content-addressed store for simulation results.

    Implementations must guarantee:

    * ``get`` after ``put`` round-trips a bit-identical ``SimResult``
      (JSON semantics: the object served is a fresh instance, equal to
      what a cold restart would serve);
    * a mismatching ``CACHE_VERSION`` or torn/corrupt entry is **never**
      served -- it reads as a miss and the entry is reclaimed;
    * concurrent ``put`` calls on one key leave one valid entry;
    * ``clear`` reports a :class:`CacheClearance`.
    """

    #: short name used in ``StoreInfo`` and the HTTP stats document
    backend = "abstract"

    def get(self, key: tuple) -> SimResult | None:
        raise NotImplementedError

    def put(self, key: tuple, result: SimResult) -> None:
        raise NotImplementedError

    def get_by_address(self, address: str) -> SimResult | None:
        """Fetch by content address alone (the HTTP ``/v1/result/<id>``)."""
        raise NotImplementedError

    def clear(self) -> CacheClearance:
        raise NotImplementedError

    def info(self) -> StoreInfo:
        raise NotImplementedError

    def path_for(self, key: tuple) -> str | None:
        """Filesystem path of the entry, for stores that have one."""
        return None

    def addresses(self) -> Iterator[str]:
        """Content addresses currently present (any version)."""
        return iter(())


def _entry_doc(key: tuple, result: SimResult) -> dict:
    return {
        "version": current_cache_version(),
        "key": list(key),
        "result": result.to_dict(),
    }


def _decode_entry(doc: dict, key: tuple | None) -> SimResult | None:
    """Validate an entry document; ``None`` when it can never be served.

    ``key=None`` skips the key comparison (address-only lookups).
    """
    if not isinstance(doc, dict) or doc.get("version") != current_cache_version():
        return None
    if key is not None and doc.get("key") != list(key):
        return None  # key-hash collision: treat as a miss
    try:
        return SimResult.from_dict(doc["result"])
    except (ValueError, KeyError, TypeError):
        return None


#: entries start ``{"version": N, ...}`` so staleness is decidable from
#: the first few bytes without parsing the (large) result payload
_VERSION_HEAD = re.compile(r'^\s*\{\s*"version"\s*:\s*(\d+)')

#: a ``.tmp`` write-temp older than this (seconds) cannot belong to a
#: live ``put`` -- writes are sub-second -- so ``clear`` may reap it
_TMP_REAP_AGE = 3600.0


class LocalDirStore(ResultStore):
    """One ``<address>.json`` per entry under a local directory.

    Migration-compatible with the pre-service disk cache: same file
    naming (sha1 of ``[CACHE_VERSION, *key]``), same document shape
    (``{"version", "key", "result"}``), so existing warm caches are
    served unchanged.  All writes go through ``tempfile.mkstemp`` +
    ``os.replace`` in the target directory: concurrent writers on one
    key each produce a complete file and the last rename wins atomically.
    """

    backend = "local"

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def path_for(self, key: tuple) -> str | None:
        return os.path.join(self.directory, content_address(key) + ".json")

    def get(self, key: tuple) -> SimResult | None:
        return self._load(self.path_for(key), key)

    def get_by_address(self, address: str) -> SimResult | None:
        if not re.fullmatch(r"[0-9a-f]{40}", address):
            return None  # never let an address reach the filesystem as a path
        return self._load(os.path.join(self.directory, address + ".json"), None)

    def _load(self, path: str, key: tuple | None) -> SimResult | None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return None
        except OSError:
            return None  # unreadable (permissions/races): leave it alone
        except ValueError:
            self._discard(path)  # torn/corrupt JSON: never loadable again
            return None
        result = _decode_entry(doc, key)
        if result is None and doc.get("version") != current_cache_version():
            # written by an abandoned CACHE_VERSION: it can never be
            # served again, so reclaim the space instead of letting dead
            # generations accumulate forever
            self._discard(path)
        return result

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def put(self, key: tuple, result: SimResult) -> None:
        path = self.path_for(key)
        tmp = None
        try:
            os.makedirs(self.directory, exist_ok=True)
            # a private temp file in the target directory: os.replace is
            # then atomic (same filesystem) and a crashed writer leaves
            # only a ``.tmp`` turd that clear()/info() ignore
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix="." + os.path.basename(path), suffix=".tmp"
            )
            with os.fdopen(fd, "w") as fh:
                json.dump(_entry_doc(key, result), fh)
            os.replace(tmp, path)
            tmp = None
        except OSError:
            pass  # the store is best-effort; the result is already in memory
        finally:
            if tmp is not None:
                self._discard(tmp)

    def addresses(self) -> Iterator[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return iter(())
        return (n[:-5] for n in names if n.endswith(".json"))

    def _scan(self) -> Iterator[tuple[str, bool, int]]:
        """(path, is_stale, size) per entry file."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        version = current_cache_version()
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                size = os.path.getsize(path)
                with open(path) as fh:
                    m = _VERSION_HEAD.match(fh.read(64))
                stale = m is None or int(m.group(1)) != version
            except OSError:
                stale, size = True, 0
            yield path, stale, size

    def clear(self) -> CacheClearance:
        removed = stale_count = 0
        for path, stale, _ in self._scan():
            try:
                os.remove(path)
            except OSError:
                continue  # not removed: do not count it (stale stays a subset)
            removed += 1
            if stale:
                stale_count += 1
        return CacheClearance(removed, stale_count, self._reap_tmp())

    def _reap_tmp(self) -> int:
        """Delete abandoned ``*.tmp`` write-temps; returns the count.

        Crashed writers leave them behind (``put`` renames on success),
        and ``_scan``/``info`` ignore them, so without this they would
        accumulate forever.  An age floor keeps a concurrent ``put``'s
        in-progress temp safe.
        """
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        cutoff = time.time() - _TMP_REAP_AGE
        reaped = 0
        for name in names:
            if not name.endswith(".tmp"):
                continue
            path = os.path.join(self.directory, name)
            try:
                if os.path.getmtime(path) > cutoff:
                    continue
                os.remove(path)
            except OSError:
                continue
            reaped += 1
        return reaped

    def info(self) -> StoreInfo:
        entries = stale = size = 0
        for _, is_stale, nbytes in self._scan():
            size += nbytes
            if is_stale:
                stale += 1
            else:
                entries += 1
        return StoreInfo(self.backend, self.directory, entries, stale, size)


class MemoryStore(ResultStore):
    """The ``ResultStore`` contract over an in-process dict.

    Entries take the same JSON round trip as the disk layout at ``put``
    time, so a hit is bit-identical to what :class:`LocalDirStore` would
    serve after a restart -- and every ``get`` returns a fresh object
    (mutating a served result never corrupts the store).
    """

    backend = "memory"

    def __init__(self) -> None:
        self._docs: dict[str, dict] = {}

    def get(self, key: tuple) -> SimResult | None:
        return self._lookup(content_address(key), key)

    def get_by_address(self, address: str) -> SimResult | None:
        return self._lookup(address, None)

    def _lookup(self, address: str, key: tuple | None) -> SimResult | None:
        doc = self._docs.get(address)
        if doc is None:
            return None
        result = _decode_entry(doc, key)
        if result is None and doc.get("version") != current_cache_version():
            self._docs.pop(address, None)  # stale generation: reclaim
        return result

    def put(self, key: tuple, result: SimResult) -> None:
        # the JSON round trip here is the contract, not a convenience:
        # it pins memory-served results to the disk layout's semantics
        self._docs[content_address(key)] = json.loads(json.dumps(_entry_doc(key, result)))

    def addresses(self) -> Iterator[str]:
        return iter(list(self._docs))

    def clear(self) -> CacheClearance:
        version = current_cache_version()
        removed = len(self._docs)
        stale = sum(1 for d in self._docs.values() if d.get("version") != version)
        self._docs.clear()
        return CacheClearance(removed, stale)

    def info(self) -> StoreInfo:
        version = current_cache_version()
        stale = sum(1 for d in self._docs.values() if d.get("version") != version)
        size = sum(len(json.dumps(d)) for d in self._docs.values())
        return StoreInfo(self.backend, "(process memory)", len(self._docs) - stale, stale, size)


class NullStore(ResultStore):
    """Caching disabled: every lookup misses, every write is dropped."""

    backend = "off"

    def get(self, key: tuple) -> SimResult | None:
        return None

    def get_by_address(self, address: str) -> SimResult | None:
        return None

    def put(self, key: tuple, result: SimResult) -> None:
        pass

    def clear(self) -> CacheClearance:
        return CacheClearance(0, 0)

    def info(self) -> StoreInfo:
        return StoreInfo(self.backend, "(disabled)", 0, 0, 0)


def build_store(config: CacheConfig) -> ResultStore:
    """Construct the store a :class:`CacheConfig` describes."""
    if config.backend == "off":
        return NullStore()
    if config.backend == "memory":
        return MemoryStore()
    return LocalDirStore(config.resolved_dir())


class InstrumentedStore(ResultStore):
    """Delegating proxy that counts and times store traffic.

    Wraps any :class:`ResultStore` and records ``get``/``put`` calls
    (with hit/miss outcome and duration histograms) against a
    :class:`~repro.obs.metrics.MetricsRegistry` -- the service wraps its
    store with one of these so ``/v1/metrics`` exposes store behaviour
    without the store classes knowing about metrics.  Every other
    attribute (``backend``, ``directory``, ``info``, ``clear``, ...)
    delegates to the wrapped store.
    """

    def __init__(self, inner: ResultStore, registry) -> None:
        self._inner = inner
        self._gets = registry.counter(
            "repro_store_get_total", "Store lookups by outcome",
            labelnames=("outcome",))
        self._puts = registry.counter(
            "repro_store_put_total", "Results written to the store")
        self._get_seconds = registry.histogram(
            "repro_store_get_seconds", "Store lookup latency")
        self._put_seconds = registry.histogram(
            "repro_store_put_seconds", "Store write latency")

    def unwrap(self) -> ResultStore:
        """The store behind the proxy (for type checks and tests)."""
        return self._inner

    def get(self, key: tuple) -> SimResult | None:
        import time

        t0 = time.perf_counter()
        hit = self._inner.get(key)
        self._get_seconds.observe(time.perf_counter() - t0)
        self._gets.labels(outcome="hit" if hit is not None else "miss").inc()
        return hit

    def put(self, key: tuple, result: SimResult) -> None:
        import time

        t0 = time.perf_counter()
        self._inner.put(key, result)
        self._put_seconds.observe(time.perf_counter() - t0)
        self._puts.inc()

    def get_by_address(self, address: str) -> SimResult | None:
        return self._inner.get_by_address(address)

    def clear(self) -> CacheClearance:
        return self._inner.clear()

    def info(self) -> StoreInfo:
        return self._inner.info()

    def path_for(self, key: tuple) -> str | None:
        return self._inner.path_for(key)

    def addresses(self) -> Iterator[str]:
        return self._inner.addresses()

    @property
    def backend(self) -> str:
        return self._inner.backend

    def __getattr__(self, name: str):
        # anything else (e.g. LocalDirStore.directory): transparent proxy
        return getattr(self._inner, name)

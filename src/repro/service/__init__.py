"""Simulation-as-a-service over the sweep engine.

Layered, bottom up:

* :mod:`repro.service.store` -- content-addressed result stores behind
  the ``ResultStore`` interface (``LocalDirStore``, ``MemoryStore``,
  ``NullStore``) plus :class:`CacheConfig`, the one way to say which
  store a session uses.
* :mod:`repro.service.session` -- :class:`SimService`: store + memo +
  sharded worker pool with explicit lifecycle phases, in-flight dedup
  and admission control.
* :mod:`repro.service.wire` -- the JSON wire format for ``SimSpec``.
* :mod:`repro.service.httpapi` / :mod:`repro.service.client` -- the
  stdlib HTTP/JSON front end (``repro serve``) and its client
  (``repro submit``; ``ServiceClient`` is session-shaped, so
  ``Artefact.compute`` accepts it via its ``session=`` argument).

The ``repro.experiments.runner`` entry points (``run_many``/``sweep``)
are thin facades over a session: the one passed as ``session=``, else
the runner's default session over ``CacheConfig()``.

Submodules import lazily (PEP 562) so ``repro.experiments.runner`` can
import :mod:`repro.service.store` without dragging in the HTTP stack.
"""

from __future__ import annotations

_EXPORTS = {
    "CacheClearance": "repro.service.store",
    "CacheConfig": "repro.service.store",
    "LocalDirStore": "repro.service.store",
    "MemoryStore": "repro.service.store",
    "NullStore": "repro.service.store",
    "ResultStore": "repro.service.store",
    "StoreInfo": "repro.service.store",
    "build_store": "repro.service.store",
    "content_address": "repro.service.store",
    "AdmissionError": "repro.service.session",
    "Batch": "repro.service.session",
    "Job": "repro.service.session",
    "PhaseError": "repro.service.session",
    "ServiceError": "repro.service.session",
    "ServiceStats": "repro.service.session",
    "SimService": "repro.service.session",
    "ServiceHTTPServer": "repro.service.httpapi",
    "serve": "repro.service.httpapi",
    "ServiceClient": "repro.service.client",
    "ServiceClientError": "repro.service.client",
    "spec_from_doc": "repro.service.wire",
    "spec_to_doc": "repro.service.wire",
    "specs_from_docs": "repro.service.wire",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)

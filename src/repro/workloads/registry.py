"""Workload lookup and trace construction.

Three families of workloads live here:

* the 26 synthetic SPEC2000 analogues (:data:`SPEC2000_PROFILES`),
  generated live by :class:`~repro.workloads.base.TraceBuilder`;
* recorded/ingested ``.uoptrace`` files (:mod:`repro.trace`), addressed
  by a registered name or directly by the canonical ``trace:<path>``
  spec name -- the latter needs no registration and therefore resolves
  identically in sweep-engine worker processes;
* declarative scenarios (:mod:`repro.scenarios`), addressed by
  ``scenario:<catalog-name>`` or an inline ``scenario:{json}`` spec --
  like ``trace:``, scheme names are self-contained and resolve
  identically in worker processes.
"""

from __future__ import annotations

import difflib
import os
from typing import Iterator

from repro.isa.uop import UOp
from repro.workloads.base import TraceBuilder, WorkloadProfile
from repro.workloads.spec2000 import PAPER_ORDER, SPEC2000_PROFILES

#: spec-name prefix that resolves a workload directly to a trace file;
#: the producing side (repro.trace.workload.spec_name) imports this too
TRACE_SCHEME = "trace:"

#: spec-name prefix for declarative scenarios (repro.scenarios)
SCENARIO_SCHEME = "scenario:"


class UnknownWorkloadError(ValueError, KeyError):
    """Unknown workload name, with close-match suggestions.

    Subclasses both ``ValueError`` (the documented contract) and
    ``KeyError`` (the historical one, which the service layer's HTTP
    error mapping and existing callers still catch).
    """

    # KeyError.__str__ repr-quotes args[0]; keep the plain message
    __str__ = Exception.__str__


def _unknown(name: str, available: list[str]) -> UnknownWorkloadError:
    close = difflib.get_close_matches(name, available, n=3)
    hint = f"; did you mean: {', '.join(close)}?" if close else ""
    return UnknownWorkloadError(
        f"unknown workload {name!r}; available: {', '.join(available)}{hint}"
    )

#: session-local registered trace workloads: name -> absolute file path
_TRACE_WORKLOADS: dict[str, str] = {}


def list_workloads(order: str = "name") -> list[str]:
    """Available workload names.

    ``order="name"`` (default) is plain ``sorted()``; ``order="paper"``
    returns the synthetic suite in the paper's figure x-axis order (see
    :data:`~repro.workloads.spec2000.PAPER_ORDER`) with registered trace
    workloads appended.  The two orders coincide today because the paper
    sorts its x-axes alphabetically, but callers that mean "as in the
    figures" should say so.
    """
    if order == "name":
        return sorted(SPEC2000_PROFILES) + sorted(_TRACE_WORKLOADS)
    if order == "paper":
        return list(PAPER_ORDER) + sorted(_TRACE_WORKLOADS)
    raise ValueError(f"unknown order {order!r}; use 'name' or 'paper'")


def paper_order() -> list[str]:
    """The paper's x-axis ordering of the synthetic suite."""
    return list(PAPER_ORDER)


def register_trace_workload(name: str, path: str) -> None:
    """Expose a ``.uoptrace`` file as workload ``name`` (session-local).

    The name must not shadow a synthetic profile.  Worker processes do
    not inherit registrations; cross-process specs use the canonical
    ``trace:<path>`` name instead (see :mod:`repro.trace.workload`).
    """
    if name in SPEC2000_PROFILES:
        raise ValueError(f"{name!r} already names a synthetic workload")
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    _TRACE_WORKLOADS[name] = os.path.abspath(path)


def unregister_trace_workload(name: str) -> None:
    """Remove a registered trace workload (no-op when absent)."""
    _TRACE_WORKLOADS.pop(name, None)


def trace_workloads() -> dict[str, str]:
    """Snapshot of registered trace workloads (name -> path)."""
    return dict(_TRACE_WORKLOADS)


def resolve_trace_path(name: str) -> str | None:
    """Trace-file path behind a workload name, or ``None`` if synthetic."""
    if name.startswith(TRACE_SCHEME):
        return name[len(TRACE_SCHEME):]
    return _TRACE_WORKLOADS.get(name)


def has_workload(name: str) -> bool:
    """True when :func:`make_trace` can resolve ``name``."""
    if name in SPEC2000_PROFILES or name in _TRACE_WORKLOADS:
        return True
    if name.startswith(SCENARIO_SCHEME):
        from repro.scenarios import has_scenario

        return has_scenario(name)
    path = resolve_trace_path(name)
    return path is not None and os.path.exists(path)


def get_workload(name: str) -> WorkloadProfile:
    """Synthetic profile by name.

    Raises :class:`UnknownWorkloadError` (a ``ValueError``) listing the
    known workloads with a ``difflib`` close-match suggestion.
    """
    try:
        return SPEC2000_PROFILES[name]
    except KeyError:
        raise _unknown(name, sorted(SPEC2000_PROFILES)) from None


def make_trace(name: str, seed: int = 1) -> Iterator[UOp]:
    """Deterministic uop stream for a named workload.

    Synthetic workloads yield an endless generated stream (the pipeline
    bounds the run); trace workloads replay their recorded stream, which
    is finite and independent of ``seed``; ``scenario:`` workloads
    compile their declarative spec (endless, seed-dependent).
    """
    if name.startswith(SCENARIO_SCHEME):
        from repro.scenarios import scenario_stream

        return scenario_stream(name, seed=seed)
    path = resolve_trace_path(name)
    if path is not None:
        return _replay_trace(path)
    if name not in SPEC2000_PROFILES:
        raise _unknown(name, list_workloads()) from None
    return TraceBuilder(get_workload(name), seed).generate()


def _replay_trace(path: str) -> Iterator[UOp]:
    # TraceStream (not a plain generator): fetch and the sampled-replay
    # skip path probe for its take_batch, so records decode as columnar
    # batches; the stream closes its file handle when next() exhausts
    # it and on GC when the pipeline abandons it
    from repro.trace.format import TraceStream

    return TraceStream(path)

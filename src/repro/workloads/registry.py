"""Workload lookup and trace construction.

Three families of workloads live here:

* the 26 synthetic SPEC2000 analogues (:data:`SPEC2000_PROFILES`),
  generated live by :class:`~repro.workloads.base.TraceBuilder`;
* recorded/ingested ``.uoptrace`` files (:mod:`repro.trace`), addressed
  by the ``trace:<path>`` spec name -- it needs no registration and
  therefore resolves identically in sweep-engine worker processes;
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


def list_workloads(order: str = "name") -> list[str]:
    """The synthetic suite's workload names.

    ``order="name"`` (default) is plain ``sorted()``; ``order="paper"``
    is the paper's figure x-axis order (see
    :data:`~repro.workloads.spec2000.PAPER_ORDER`).  The two orders
    coincide today because the paper sorts its x-axes alphabetically,
    but callers that mean "as in the figures" should say so.
    """
    if order == "name":
        return sorted(SPEC2000_PROFILES)
    if order == "paper":
        return list(PAPER_ORDER)
    raise ValueError(f"unknown order {order!r}; use 'name' or 'paper'")


def resolve_trace_path(name: str) -> str | None:
    """Trace-file path behind a ``trace:`` name, or ``None`` otherwise."""
    return name[len(TRACE_SCHEME):] if name.startswith(TRACE_SCHEME) else None


def has_workload(name: str) -> bool:
    """True when :func:`make_trace` can resolve ``name``."""
    if name in SPEC2000_PROFILES:
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
        # TraceStream (not a plain generator): fetch and the sampled-run
        # skip path probe for its take_batch, so records decode as
        # columnar batches; the stream closes its file handle when next()
        # exhausts it and on GC when the pipeline abandons it
        from repro.trace.format import TraceStream

        return TraceStream(path)
    if name not in SPEC2000_PROFILES:
        raise _unknown(name, list_workloads()) from None
    return TraceBuilder(get_workload(name), seed).generate()

"""Telemetry spine: metrics, spans, cycle tracing, logging, profiling.

One package owns every window into a running simulation or service:

* :mod:`repro.obs.metrics` -- the service's **metrics registry**
  (counters, gauges, fixed-bucket histograms, labeled families) rendered
  in the Prometheus text exposition format by the HTTP ``/v1/metrics``
  endpoint;
* :mod:`repro.obs.spans` -- wall-clock **spans** over the service
  lifecycle and the sampled-run phases, with run/batch/shard IDs carried
  through :mod:`contextvars` and explicitly propagated into pool
  workers, so per-spec timelines survive process fan-out;
* :mod:`repro.obs.cycletrace` -- opt-in **cycle-level event tracing**:
  a bounded ring buffer of stage-occupancy/stall/flush records hooked
  into ``Pipeline.step()``, dumpable as NDJSON;
* :mod:`repro.obs.log` -- structured, run-ID-tagged logging
  (``--log-json`` for machine-readable lines);
* :mod:`repro.obs.profile` -- the ``repro run --profile`` per-stage
  time/occupancy report (subsumes the old bench_core breakdown);
* :mod:`repro.obs.telemetry` -- the versioned ``extra["telemetry"]``
  result schema and its accessor;
* :mod:`repro.obs.top` -- the ``repro top`` live terminal view.

Invariants (see ROADMAP.md "Observability"):

* **OBS is off by default** and the disabled path is as close to free
  as Python allows: span helpers return before timing anything, the
  pipeline's cycle-trace hook is a single ``is None`` test per cycle,
  and nothing in a hot loop formats, allocates or locks.  The
  perf-smoke gate and ``tests/test_obs_pipeline.py`` enforce the
  budget.
* **Hooks never mutate simulator state.**  Tracers and profilers read
  occupancies and timestamps; results stay bit-identical with tracing
  enabled (golden re-run in ``tests/test_obs_pipeline.py``).
* Enable programmatically with :func:`enable` or via ``REPRO_OBS=1``
  in the environment (read once at import; ``enable``/``disable``
  override it).
"""

from __future__ import annotations

import os

#: process-wide observability switch (spans + timing instrumentation);
#: the service's metrics registry is always real -- this flag only gates
#: the optional instrumentation sprinkled through hot-ish paths.
_enabled = os.environ.get("REPRO_OBS", "0") not in ("", "0", "off", "no")


def enabled() -> bool:
    """Is optional observability instrumentation on for this process?"""
    return _enabled


def enable() -> None:
    """Turn on spans/timing instrumentation (overrides ``REPRO_OBS``)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn observability instrumentation back off."""
    global _enabled
    _enabled = False


__all__ = ["enabled", "enable", "disable"]

"""Cycle-level event tracing: a bounded ring of pipeline observations.

A :class:`CycleTracer` attaches to a :class:`~repro.core.pipeline
.Pipeline` via ``pipe.set_cycle_tracer(tracer)``.  Once attached, the
pipeline calls :meth:`snap` once per simulated cycle and :meth:`event`
at discrete happenings (flushes).  The tracer only *reads* pipeline
state -- occupancies and counters -- and never mutates it, so traced
runs are bit-identical to untraced ones (enforced by
``tests/test_obs_pipeline.py`` against the golden snapshots).

Records live in a bounded ring buffer (oldest evicted first), so a
billion-cycle run with a tracer attached costs bounded memory.  Dump
with :meth:`dump_ndjson` for offline analysis (one JSON object per
line), or reduce in-process with :meth:`summary`.

The hook is opt-in: an untraced pipeline pays exactly one ``is None``
test per cycle (the perf-smoke gate keeps that honest).
"""

from __future__ import annotations

import json
from collections import deque

#: per-cycle occupancy record layout (order matters: compact rows);
#: ``inflight`` is the ROB occupancy (the ROB is the in-flight window),
#: kept as its own column so the row format does not change
SNAP_FIELDS = (
    "cycle", "rob", "int_iq", "fp_iq", "fetch_q", "pending_loads",
    "committed", "inflight",
)


class CycleTracer:
    """Bounded ring buffer of per-cycle occupancy rows and stall events.

    ``every`` subsamples the per-cycle rows (1 = every cycle); discrete
    events (flushes) are always recorded.  ``capacity`` bounds the ring.
    """

    __slots__ = ("capacity", "every", "_ring", "_events", "snapped", "dropped")

    def __init__(self, capacity: int = 65536, every: int = 1) -> None:
        if capacity <= 0 or every <= 0:
            raise ValueError("capacity and every must be positive")
        self.capacity = capacity
        self.every = every
        self._ring: deque[tuple] = deque(maxlen=capacity)
        self._events: deque[dict] = deque(maxlen=capacity)
        self.snapped = 0  # rows offered (pre-subsampling, pre-eviction)
        self.dropped = 0  # rows evicted from the ring

    # -- hooks called by Pipeline (read-only by contract) -------------------

    def snap(self, pipe) -> None:
        """One per-cycle observation; called from ``Pipeline.step()``."""
        self.snapped += 1
        if self.every != 1 and self.snapped % self.every:
            return
        ring = self._ring
        if len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append((
            pipe.cycle,
            len(pipe.rob.buf),
            pipe.int_iq.size,
            pipe.fp_iq.size,
            len(pipe.fetch_queue),
            len(pipe._pending_loads),
            pipe.committed,
            len(pipe.rob.buf),
        ))

    def event(self, cycle: int, kind: str, **fields) -> None:
        """A discrete happening (e.g. ``flush``) with free-form fields."""
        self._events.append({"event": kind, "cycle": cycle, **fields})

    # -- consumption --------------------------------------------------------

    def rows(self) -> list[dict]:
        """The occupancy rows currently in the ring, as dicts."""
        return [dict(zip(SNAP_FIELDS, row)) for row in self._ring]

    def events(self) -> list[dict]:
        return list(self._events)

    def dump_ndjson(self, fh) -> int:
        """Write rows + events as NDJSON (one object per line).

        Occupancy rows carry ``"record": "cycle"``; events carry
        ``"record": "event"``.  Returns the line count.
        """
        n = 0
        for row in self._ring:
            fh.write(json.dumps(
                {"record": "cycle", **dict(zip(SNAP_FIELDS, row))},
                separators=(",", ":")) + "\n")
            n += 1
        for ev in self._events:
            fh.write(json.dumps({"record": "event", **ev},
                                separators=(",", ":")) + "\n")
            n += 1
        return n

    def dump(self, path: str) -> int:
        with open(path, "w") as fh:
            return self.dump_ndjson(fh)

    def summary(self) -> dict:
        """Mean/max occupancy per structure over the retained window."""
        rows = list(self._ring)
        out: dict = {
            "rows": len(rows),
            "snapped": self.snapped,
            "dropped": self.dropped,
            "events": len(self._events),
        }
        if not rows:
            return out
        for i, name in enumerate(SNAP_FIELDS):
            if name in ("cycle", "committed"):
                continue
            col = [r[i] for r in rows]
            out[name] = {
                "mean": sum(col) / len(col),
                "max": max(col),
            }
        return out

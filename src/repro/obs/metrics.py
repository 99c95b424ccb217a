"""Metrics registry: counters, gauges, histograms, labeled families.

The vocabulary is deliberately the Prometheus one -- monotonic
:class:`Counter`, settable :class:`Gauge` (optionally computed at scrape
time from a callback), fixed-bucket cumulative :class:`Histogram`, and
:class:`Family` for labeled variants -- because the only wire format is
the Prometheus text exposition format (:meth:`MetricsRegistry.render_text`,
served by ``GET /v1/metrics``).  No dependencies; a registry is a plain
object and a metric is a slotted instance with a lock.

There is no process-default registry: the service constructs its own
:class:`MetricsRegistry` and keeps its admission counters and store
timings there regardless of the observability switch, because
``/v1/stats`` always needed them.  Nothing in the simulator's cycle
loop holds a metric.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right


#: default histogram buckets for durations in seconds (scrape-friendly
#: log-ish layout; the last bucket is always +Inf implicitly)
DURATION_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0,
)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(v: float) -> str:
    # integral values render without the trailing .0 -- counters read as
    # counts, and the output is stable across int/float internal types
    if isinstance(v, bool):  # pragma: no cover - never stored, be safe
        return "1" if v else "0"
    if isinstance(v, (int, float)) and float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _labels_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """Monotonic counter.  ``inc`` only; use a Gauge for values that fall."""

    __slots__ = ("name", "help", "labels", "_value", "_lock")
    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: tuple = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    def samples(self):
        yield (self.name, self.labels, self._value)


class Gauge:
    """Settable value; ``fn`` makes it computed at collection time."""

    __slots__ = ("name", "help", "labels", "_value", "_lock", "fn")
    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: tuple = (), fn=None):
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()
        self.fn = fn

    @property
    def value(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def samples(self):
        yield (self.name, self.labels, self.value)


class Histogram:
    """Cumulative fixed-bucket histogram (Prometheus semantics).

    ``buckets`` are the finite upper bounds, ascending; an implicit
    ``+Inf`` bucket catches the rest.  ``observe`` is O(log buckets).
    """

    __slots__ = ("name", "help", "labels", "buckets", "_counts", "_sum",
                 "_count", "_lock")
    kind = "histogram"

    def __init__(self, name: str, help: str = "", labels: tuple = (),
                 buckets: tuple = DURATION_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.help = help
        self.labels = labels
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        i = bisect_right(self.buckets, value)
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def samples(self):
        cumulative = 0
        for bound, n in zip(self.buckets, self._counts):
            cumulative += n
            yield (self.name + "_bucket",
                   self.labels + (("le", _format_value(bound)),), cumulative)
        yield (self.name + "_bucket", self.labels + (("le", "+Inf"),), self._count)
        yield (self.name + "_sum", self.labels, self._sum)
        yield (self.name + "_count", self.labels, self._count)


class Family:
    """A labeled family: one metric per distinct label-value tuple.

    ``family.labels(shard="3")`` returns (and caches) the child metric;
    children share the family's name/help and render as one block.
    """

    def __init__(self, cls, name: str, help: str, labelnames: tuple[str, ...],
                 **kwargs):
        self._cls = cls
        self.name = name
        self.help = help
        self.kind = cls.kind
        self._labelnames = tuple(labelnames)
        self._kwargs = kwargs
        self._children: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def labels(self, **labelvalues):
        if set(labelvalues) != set(self._labelnames):
            raise ValueError(
                f"family {self.name} takes labels {self._labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[n]) for n in self._labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(
                    key,
                    self._cls(self.name, self.help,
                              labels=tuple(zip(self._labelnames, key)),
                              **self._kwargs),
                )
        return child

    def samples(self):
        for key in sorted(self._children):
            yield from self._children[key].samples()


class MetricsRegistry:
    """An ordered collection of metrics with one text rendering.

    Registration order is exposition order (stable output for tests and
    humans); names must be unique per registry.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()
        self.created_at = time.time()

    def register(self, metric):
        with self._lock:
            prior = self._metrics.get(metric.name)
            if prior is not None:
                raise ValueError(f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric
        return metric

    def get(self, name: str):
        return self._metrics.get(name)

    def counter(self, name: str, help: str = "", labelnames: tuple = ()) -> Counter:
        if labelnames:
            return self.register(Family(Counter, name, help, labelnames))
        return self.register(Counter(name, help))

    def gauge(self, name: str, help: str = "", labelnames: tuple = (), fn=None):
        if labelnames:
            return self.register(Family(Gauge, name, help, labelnames))
        return self.register(Gauge(name, help, fn=fn))

    def histogram(self, name: str, help: str = "", labelnames: tuple = (),
                  buckets: tuple = DURATION_BUCKETS):
        if labelnames:
            return self.register(
                Family(Histogram, name, help, labelnames, buckets=buckets))
        return self.register(Histogram(name, help, buckets=buckets))

    def collect(self):
        """Yield (metric, [(name, labels, value), ...]) in registration order."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            yield metric, list(metric.samples())

    def render_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for metric, samples in self.collect():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for name, labels, value in samples:
                lines.append(f"{name}{_labels_suffix(labels)} {_format_value(value)}")
        return "\n".join(lines) + "\n"


"""A metrics registry: counters, gauges and log2 histograms.

One :class:`MetricsRegistry` aggregates numbers from every instrumented
component into a single JSON-safe ``snapshot()`` schema::

    {
      "counters":   {"l1.read_hits": 1024, ...},
      "gauges":     {"l1.dirty_fraction": 0.163, ...},
      "histograms": {"l1.dirty_interval_cycles": [[3, 17], [4, 40]], ...}
    }

Histograms bucket by power of two exactly like
:meth:`repro.memsim.stats.CacheStats.record_dirty_interval` (bucket ``b``
counts values in ``[2^b, 2^(b+1))``), and snapshots render them as
sorted ``[bucket, count]`` pairs so a round-trip through JSON — e.g. a
:class:`~repro.runtime.checkpoint.CheckpointStore` payload or a
``--json`` CLI report — is exact (JSON objects would stringify integer
keys).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Tuple

from ..errors import ConfigurationError


def log2_bucket(value: float) -> int:
    """Histogram bucket of ``value``: ``b`` such that ``2^b <= value < 2^(b+1)``.

    Everything below 2 (including non-positive values) lands in bucket 0,
    matching the dirty-interval bucketing of
    :class:`~repro.memsim.stats.CacheStats`.
    """
    return max(0, int(value).bit_length() - 1)


@dataclasses.dataclass
class Counter:
    """A monotone event counter."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError("counters only move forward")
        self.value += amount


@dataclasses.dataclass
class Gauge:
    """A point-in-time measurement (last write wins)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Log2Histogram:
    """Power-of-two bucketed value distribution."""

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0

    def record(self, value: float, count: int = 1) -> None:
        """Add ``count`` observations of ``value``."""
        bucket = log2_bucket(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + count
        self.count += count
        self.total += value * count

    def merge_buckets(self, buckets: Dict[int, int]) -> None:
        """Fold pre-bucketed counts (e.g. a ``CacheStats`` histogram) in.

        The merged values count toward ``count`` but not ``total`` (their
        exact magnitudes are gone; only the distribution survives).
        """
        for bucket, count in buckets.items():
            self.buckets[int(bucket)] = self.buckets.get(int(bucket), 0) + count
            self.count += count

    def pairs(self) -> List[List[int]]:
        """Sorted, JSON-exact ``[bucket, count]`` rendering."""
        return [[b, self.buckets[b]] for b in sorted(self.buckets)]


class MetricsRegistry:
    """Named counters/gauges/histograms with one snapshot schema.

    Accessors are get-or-create, so emitting code never pre-registers::

        registry.counter("l1.recoveries").inc()
        registry.gauge("l1.dirty_fraction").set(stats.dirty_fraction)
        registry.histogram("recovery.units_scanned").record(report.units_scanned)
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Log2Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str) -> Log2Histogram:
        """The histogram called ``name`` (created on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Log2Histogram()
        return histogram

    # ------------------------------------------------------------------
    def merge_counts(
        self, items: Iterable[Tuple[str, float]], prefix: str = ""
    ) -> None:
        """Bulk-import ``(name, value)`` pairs: ints become counter
        increments, floats become gauges."""
        for name, value in items:
            key = f"{prefix}{name}"
            if isinstance(value, bool):
                self.gauge(key).set(float(value))
            elif isinstance(value, int):
                self.counter(key).inc(value)
            else:
                self.gauge(key).set(value)

    def snapshot(self) -> dict:
        """The shared metrics schema (see module docstring)."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.pairs()
                for name, h in sorted(self._histograms.items())
            },
        }

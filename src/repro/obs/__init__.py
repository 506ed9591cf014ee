"""Observability: event tracing, metrics, and the recovery audit record.

``repro.obs`` makes the simulator's correction machinery visible without
making it slower: every instrumented component guards its emission sites
with a single predicate that is false by default, so the disabled path
costs one attribute test (gated in CI by ``run_bench --max-obs-overhead``).

Three pillars:

* **Trace sinks** (:mod:`repro.obs.sinks`) — a :class:`TraceSink`
  protocol with a :class:`NullSink` (disabled), a checksummed
  :class:`JsonlSink` (one fsync-disciplined JSON line per event, the
  same writer rules as :class:`repro.runtime.checkpoint.CheckpointStore`)
  and a :class:`ChromeTraceSink` whose output loads directly into
  ``chrome://tracing`` / Perfetto.
* **Metrics** (:mod:`repro.obs.metrics`) — a :class:`MetricsRegistry` of
  counters, gauges and log2 histograms sharing one ``snapshot()``
  schema with :class:`~repro.memsim.stats.CacheStats`,
  :class:`~repro.faults.campaign.CampaignResult` and the ``--json``
  CLIs.
* **Recovery audit record** (:mod:`repro.obs.trail`) — a replayable
  account of one CPPC recovery pass, rendered from its
  :class:`~repro.cppc.recovery.RecoveryReport` by :func:`audit_payload`:
  parity syndrome → register residue → locator method → reconstructed
  value, verifiable offline with :func:`verify_audit`.
"""

from .metrics import Counter, Gauge, Log2Histogram, MetricsRegistry
from .sinks import (
    ChromeTraceSink,
    JsonlSink,
    NullSink,
    TraceSink,
    make_sink,
    read_jsonl_trace,
)
from .trail import audit_payload, reconstruct_corrections, verify_audit

__all__ = [
    "TraceSink",
    "NullSink",
    "JsonlSink",
    "ChromeTraceSink",
    "make_sink",
    "read_jsonl_trace",
    "Counter",
    "Gauge",
    "Log2Histogram",
    "MetricsRegistry",
    "audit_payload",
    "reconstruct_corrections",
    "verify_audit",
]

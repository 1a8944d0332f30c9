"""Unified metrics for the whole stack.

One accounting surface instead of five: the client, server core, transports,
durable storage, ingestion pipeline and fleet engines all record into a
:class:`MetricsRegistry` of labeled :class:`Counter`/:class:`Gauge`/
:class:`Histogram` families, plus the :func:`exported` fields of the Stats
objects it holds (:meth:`MetricsRegistry.register_stats`), so an event is
counted once.  The registry is

* **zero-dependency** — plain Python, importable on the numpy-absent leg;
* **mergeable exactly** — per-shard worker registries fold into the parent
  by summing counters and histogram buckets (never averaging), the same
  discipline :meth:`repro.experiments.fleet.FleetReport.merge` uses; and
* **exportable** — :mod:`repro.observability.export` renders any registry
  (or snapshot) as JSON or Prometheus text exposition format, and ships a
  minimal parser so CI can round-trip the exposition.

Call sites take an optional ``metrics=`` registry defaulting to
:data:`NULL_REGISTRY`, whose child metrics are shared no-op singletons — the
uninstrumented hot loop pays one no-op method call per *request*, and
nothing at all per URL.
"""

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    exported,
    log_bounds,
    merge_snapshots,
    registry_or_null,
)
from repro.observability.export import (
    parse_prometheus_text,
    render_json,
    render_prometheus,
    snapshot_samples,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "exported",
    "log_bounds",
    "merge_snapshots",
    "parse_prometheus_text",
    "registry_or_null",
    "render_json",
    "render_prometheus",
    "snapshot_samples",
]

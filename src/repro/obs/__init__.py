"""repro.obs — the unified observability layer.

One subsystem replaces the four ad-hoc measurement mechanisms that had
accumulated across the codebase (server stat dicts, phase stopwatches,
engine batch counters, per-session byte fields):

* :mod:`repro.obs.registry` — thread-safe :class:`MetricsRegistry`
  holding :class:`Counter`/:class:`Gauge`/:class:`Histogram`
  instruments (fixed bucket boundaries, no third-party dependencies);
* :mod:`repro.obs.tracing` — :class:`Span`/:class:`Tracer` phase
  tracing that feeds both per-phase latency histograms and the paper's
  :class:`~repro.timing.report.TimingBreakdown` figures;
* :mod:`repro.obs.exposition` — Prometheus text format and structured
  JSON renderings of a registry;
* :mod:`repro.obs.http` — the opt-in ``/metrics`` + ``/healthz``
  endpoint (:class:`StatsEndpoint`) served from a plain ``http.server``
  thread;
* :mod:`repro.obs.check` — a stdlib-only scrape-and-validate tool used
  as the CI gate on exposition output.

See ``docs/observability.md`` for the metric catalogue and how spans
map onto the paper's Figure 2/3 phase decomposition.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.exposition import (
        JSON_CONTENT_TYPE,
        PROMETHEUS_CONTENT_TYPE,
        render_json,
        render_json_text,
        render_prometheus,
    )
    from repro.obs.http import StatsEndpoint
    from repro.obs.registry import (
        DEFAULT_LATENCY_BUCKETS,
        Counter,
        Gauge,
        Histogram,
        MetricSnapshot,
        MetricsRegistry,
    )
    from repro.obs.tracing import PHASE_FIELDS, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "JSON_CONTENT_TYPE",
    "MetricSnapshot",
    "MetricsRegistry",
    "PHASE_FIELDS",
    "PROMETHEUS_CONTENT_TYPE",
    "Span",
    "StatsEndpoint",
    "Tracer",
    "render_json",
    "render_json_text",
    "render_prometheus",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.exposition": (
        "JSON_CONTENT_TYPE",
        "PROMETHEUS_CONTENT_TYPE",
        "render_json",
        "render_json_text",
        "render_prometheus",
    ),
    "repro.obs.http": ("StatsEndpoint",),
    "repro.obs.registry": (
        "DEFAULT_LATENCY_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricSnapshot",
        "MetricsRegistry",
    ),
    "repro.obs.tracing": ("PHASE_FIELDS", "Span", "Tracer"),
})

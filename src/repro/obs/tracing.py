"""Phase-level tracing: spans, per-phase totals, paper-figure breakdowns.

The paper's evaluation (Figures 2, 3, 5, 6) decomposes every run into
the same four online phases — client encryption, server computation,
communication, client decryption — and the repo already has two
mechanisms that produce those numbers:
:class:`~repro.spfe.context.ComputeBlock` wall-clock timing for measured
runs and :class:`~repro.timing.costmodel.HardwareProfile` charges for
modelled ones, both accumulating into a
:class:`~repro.timing.report.TimingBreakdown`.  A :class:`Tracer`
subsumes both: phases enter it either as *measured* spans
(:meth:`Tracer.span`, a ``perf_counter`` context manager) or as
*recorded* durations (:meth:`Tracer.record`, for modelled charges and
virtual clocks), and come back out three ways:

* :meth:`Tracer.totals` — seconds per phase name;
* :meth:`Tracer.breakdown` — a ready
  :class:`~repro.timing.report.TimingBreakdown` using the canonical
  phase names below, so traced runs plug straight into the
  figure-rendering pipeline;
* a per-phase latency :class:`~repro.obs.registry.Histogram`
  (``repro_phase_seconds{phase=...}``) when the tracer is attached to
  a :class:`~repro.obs.registry.MetricsRegistry` — which is how
  server-side fold latencies end up on the ``/metrics`` endpoint.

Canonical phase names (others are kept in totals but ignored by
:meth:`~Tracer.breakdown`): ``encrypt``, ``fold`` (alias
``server_compute``), ``communication``, ``decrypt``, ``offline``,
``combine``, plus the deployment-only phase ``resume``.

A tracer is thread-safe (one server tracer is shared by every worker)
and bounds its memory: per-phase *totals* are kept forever, but the
individual span list is a ring of the most recent ``keep_spans``
entries, so a long-running server does not grow without bound.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.exceptions import ParameterError
from repro.obs.registry import Histogram, MetricsRegistry
from repro.timing.report import TimingBreakdown

__all__ = ["Span", "Tracer", "PHASE_FIELDS", "PHASE_HISTOGRAM_NAME"]

#: metric name under which attached tracers publish span latencies
PHASE_HISTOGRAM_NAME = "repro_phase_seconds"

#: canonical phase name -> TimingBreakdown field
PHASE_FIELDS: Dict[str, str] = {
    "encrypt": "client_encrypt_s",
    "client_encrypt": "client_encrypt_s",
    "fold": "server_compute_s",
    "server_compute": "server_compute_s",
    "communication": "communication_s",
    "decrypt": "client_decrypt_s",
    "client_decrypt": "client_decrypt_s",
    "offline": "offline_precompute_s",
    "offline_precompute": "offline_precompute_s",
    "combine": "combine_s",
}


@dataclass(frozen=True)
class Span:
    """One completed phase interval: a name and a duration in seconds."""

    name: str
    seconds: float


class _SpanHandle:
    """Context manager measuring one span with ``perf_counter``."""

    __slots__ = ("_tracer", "_name", "_started", "seconds")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._started = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._started
        self._tracer.record(self._name, self.seconds)


class Tracer:
    """Thread-safe collector of phase spans for one run or one server.

    Args:
        registry: optional :class:`~repro.obs.registry.MetricsRegistry`;
            when given, every span is also observed into the
            ``repro_phase_seconds{phase=<name>}`` histogram there.
        keep_spans: ring size for the individual-span log (totals are
            unaffected; 0 keeps no individual spans).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        keep_spans: int = 1024,
    ) -> None:
        if keep_spans < 0:
            raise ParameterError("keep_spans must be non-negative")
        self.registry = registry
        # handle cache only — both lookup misses and racy double-writes
        # are harmless because registry creation is idempotent
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()
        self._spans: "Deque[Span]" = deque(maxlen=keep_spans)
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def span(self, name: str) -> _SpanHandle:
        """A context manager timing one ``name`` phase (measured)."""
        return _SpanHandle(self, name)

    def record(self, name: str, seconds: float) -> None:
        """Record a completed phase of known duration (modelled or measured)."""
        if seconds < 0:
            raise ParameterError("span duration must be non-negative")
        with self._lock:
            self._spans.append(Span(name, seconds))
            self._totals[name] = self._totals.get(name, 0.0) + seconds
            self._counts[name] = self._counts.get(name, 0) + 1
        if self.registry is not None:
            self._phase_histogram(name).observe(seconds)

    def _phase_histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            assert self.registry is not None
            histogram = self.registry.histogram(
                PHASE_HISTOGRAM_NAME,
                "Duration of one protocol phase span, by phase label.",
                labels={"phase": name},
            )
            self._histograms[name] = histogram
        return histogram

    def totals(self) -> Dict[str, float]:
        """Accumulated seconds per phase name (a copy)."""
        with self._lock:
            return dict(self._totals)

    def counts(self) -> Dict[str, int]:
        """Completed span count per phase name (a copy)."""
        with self._lock:
            return dict(self._counts)

    def spans(self) -> List[Span]:
        """The most recent spans, oldest first (bounded by keep_spans)."""
        with self._lock:
            return list(self._spans)

    def total(self, name: str) -> float:
        """Accumulated seconds for one phase (0.0 when never seen)."""
        with self._lock:
            return self._totals.get(name, 0.0)

    def breakdown(self) -> TimingBreakdown:
        """The canonical-phase totals as a figure-ready breakdown.

        Phase names outside :data:`PHASE_FIELDS` (e.g. ``resume``) stay
        available via :meth:`totals` but do not contribute here.
        """
        totals = self.totals()
        fields: Dict[str, float] = {}
        for name, seconds in totals.items():
            target = PHASE_FIELDS.get(name)
            if target is not None:
                fields[target] = fields.get(target, 0.0) + seconds
        return TimingBreakdown(**fields)

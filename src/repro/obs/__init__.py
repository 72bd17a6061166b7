"""Observability: span tracing, causal tracing, typed metrics, explanations.

Four layers, usable independently:

* :mod:`repro.obs.tracer` -- nestable, taggable spans, and the one
  ambient instrumentation context: ``with tracing(tracer):`` installs
  a tracer the optimizers, the advertisement index and the lifecycle
  service report to, beside the op-count sink of
  :func:`repro.perf.profiled`; nothing installed costs nothing.
* :mod:`repro.obs.causal` -- distributed causal tracing: each message
  hop is a :class:`Span` with W3C-style trace, span and parent ids,
  carried on its runtime message and linked under its cause as the
  simulator records it, so deployments and migrations form per-query
  span trees with per-link cost/delay accounting; exportable as tagged JSON and Chrome trace events;
  ``with causal_tracing(tracer):`` installs one on the same context.
* :mod:`repro.obs.metrics` -- a typed :class:`MetricRegistry`
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram`) holding
  current values, with Prometheus text exposition and JSON snapshots.
* :mod:`repro.obs.explain` -- :class:`PlanExplanation` reports built
  from a deployment plus its span trace (``explain=True`` on the
  optimizer entry points, ``repro trace`` on the CLI).
* :mod:`repro.obs.timeseries` / :mod:`repro.obs.rules` /
  :mod:`repro.obs.flight` / :mod:`repro.obs.telemetry` -- the
  continuous telemetry pipeline: a bounded :class:`TimeSeriesStore`
  fed by a :class:`TelemetryScraper`, a declarative :class:`RulesEngine`
  (threshold / absence / SLO burn-rate alerts with pending->firing->
  resolved hysteresis), a :class:`FlightRecorder` black box, and the
  :class:`Telemetry` pipeline services/fleets accept as ``telemetry=``.
  Rendered by ``repro dash`` via :mod:`repro.obs.dashboard`.

See ``docs/observability.md`` for the span and causal models and the
metric naming scheme, and ``docs/telemetry.md`` for the telemetry
pipeline.
"""

from repro.obs.causal import CausalTracer
from repro.obs.explain import PlanExplanation, build_explanation
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.obs.flight import FlightRecorder
from repro.obs.rules import (
    AbsenceRule,
    AlertRule,
    BurnRateRule,
    FairnessSkewRule,
    RecordingRule,
    RuleState,
    RulesEngine,
    ThresholdRule,
    default_rule_pack,
)
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.obs.timeseries import TelemetryScraper, TimeSeriesStore
from repro.obs.tracer import Span, Tracer, causal_tracing, tracing

__all__ = [
    "Span",
    "Tracer",
    "tracing",
    "CausalTracer",
    "causal_tracing",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "PlanExplanation",
    "build_explanation",
    "TimeSeriesStore",
    "TelemetryScraper",
    "RuleState",
    "AlertRule",
    "ThresholdRule",
    "AbsenceRule",
    "BurnRateRule",
    "FairnessSkewRule",
    "RecordingRule",
    "RulesEngine",
    "default_rule_pack",
    "FlightRecorder",
    "Telemetry",
    "TelemetryConfig",
]

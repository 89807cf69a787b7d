"""Observability layer: logging, ledger, tracing, Prometheus.

Small, dependency-free building blocks shared by the runner, the serving
stack, and the CLI:

:mod:`repro.observability.structlog`
    A stdlib-only, structlog-inspired JSON-lines event logger with
    ``bind(**ctx)`` context propagation.  Every job and request in the
    stack emits machine-parseable key-value events through it.
:mod:`repro.observability.ledger`
    A persistent append-only :class:`RunLedger` (JSONL under
    ``~/.cache/repro/ledger/``) recording every runner job and serving
    batch with lineage back to content key, artifact version, config hash,
    backend, and package version — plus size/age-based segment rotation
    and ``compact()`` lifecycle management.
:mod:`repro.observability.tracing`
    Distributed tracing: :class:`TraceContext` propagation across HTTP,
    shard Pipe RPC, and runner worker boundaries, with :class:`Span`
    phase timers recorded into the ledger.
:mod:`repro.observability.trace_view`
    Rebuilds cross-process span trees from ledger span records
    (``repro trace show`` / ``repro trace slowest``).
:mod:`repro.observability.metrics`
    The one metrics model of serving pools, router entries, shard pools and
    the runner: a :class:`MetricsRegistry` of counters, gauges, bucket
    histograms and rolling windows, each declared once and exported both as
    the JSON snapshot and as Prometheus text.
:mod:`repro.observability.prometheus`
    Renders registries into Prometheus text exposition format, optionally
    under base labels (the ``model`` label of ``/v1/metrics``), and parses
    it back for validation.
:mod:`repro.observability.runmetrics`
    Runner-side :class:`RunnerMetrics` registry and the optional
    ``GET /metrics`` endpoint of ``repro run-all --metrics-port``.
"""

from repro.observability.ledger import (
    KIND_JOB,
    KIND_SERVING_BATCH,
    KIND_SERVING_SHARD,
    KIND_SPAN,
    LEDGER_DIR_ENV,
    RunLedger,
    artifact_lineage,
    config_hash,
    default_ledger_root,
    job_entry,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.prometheus import (
    parse_prometheus_text,
    render_prometheus,
)
from repro.observability.runmetrics import (
    RunnerMetrics,
    RunnerMetricsServer,
)
from repro.observability.structlog import (
    StructLogger,
    configure_structured_logging,
    get_struct_logger,
)
from repro.observability.trace_view import (
    build_trace_tree,
    format_trace,
    slowest_traces,
    trace_spans,
)
from repro.observability.tracing import (
    TRACE_ENV,
    TRACE_HEADER,
    Span,
    TraceContext,
    current_trace,
    record_span,
    span,
    trace_fields,
    trace_id_for_job,
    trace_id_for_request,
    trace_scope,
)

__all__ = [
    "KIND_JOB",
    "KIND_SERVING_BATCH",
    "KIND_SERVING_SHARD",
    "KIND_SPAN",
    "LEDGER_DIR_ENV",
    "MetricsRegistry",
    "RunLedger",
    "RunnerMetrics",
    "RunnerMetricsServer",
    "Span",
    "StructLogger",
    "TRACE_ENV",
    "TRACE_HEADER",
    "TraceContext",
    "artifact_lineage",
    "build_trace_tree",
    "config_hash",
    "configure_structured_logging",
    "current_trace",
    "default_ledger_root",
    "format_trace",
    "get_struct_logger",
    "job_entry",
    "parse_prometheus_text",
    "record_span",
    "render_prometheus",
    "slowest_traces",
    "span",
    "trace_fields",
    "trace_id_for_job",
    "trace_id_for_request",
    "trace_scope",
    "trace_spans",
]

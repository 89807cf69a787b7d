"""Prometheus text exposition rendering (and a validating parser).

:func:`render_prometheus` turns a
:class:`~repro.serving.metrics.ServingMetrics` snapshot (the JSON form
served on ``GET /metrics.json``) into the Prometheus text exposition
format (version 0.0.4) served on ``GET /metrics``:

* scalar totals become ``counter`` samples;
* queue depth, uptime, window sizes, and latency quantiles become
  ``gauge`` samples;
* the batch-size histogram becomes a proper cumulative ``histogram``
  (``_bucket{le=...}`` / ``_sum`` / ``_count``);
* the deployment's backend/model identity is exposed as an info-style
  gauge with labels (``repro_serving_info{backend="sparse"} 1``).

Everything is stdlib string formatting — no client library.  The inverse,
:func:`parse_prometheus_text`, is a strict line-level parser used by the
CI serving smoke test and the endpoint tests to prove the output is
well-formed.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Content type of the text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Prefix of every exported metric.
METRIC_PREFIX = "repro_serving"

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')
_QUANTILE_KEY = re.compile(r"^p\d+(?:\.\d+)?_ms$")

_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _escape_label_value(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - never produced by snapshots
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Families:
    """Accumulates samples grouped by metric family, in first-touch order.

    The exposition format requires all samples of one family to sit under a
    single ``# HELP``/``# TYPE`` header pair — interleaving families (as a
    naive per-model loop over a line writer would) is malformed.  Collecting
    into families first makes the multi-model rendering correct by
    construction, and for a single unlabeled snapshot the emitted text is
    byte-identical to the historical line-writer output.
    """

    def __init__(self) -> None:
        self._families: "Dict[str, Dict[str, Any]]" = {}
        self._order: List[str] = []

    def family(self, name: str, kind: str, help_text: str) -> Dict[str, Any]:
        entry = self._families.get(name)
        if entry is None:
            entry = {"kind": kind, "help": help_text, "samples": []}
            self._families[name] = entry
            self._order.append(name)
        return entry

    def sample(self, name: str, kind: str, help_text: str, value: float,
               labels: Optional[Mapping[str, str]] = None) -> None:
        self.family(name, kind, help_text)["samples"].append(
            (dict(labels) if labels else None, float(value))
        )

    def text(self) -> str:
        lines: List[str] = []
        for name in self._order:
            family = self._families[name]
            base = name
            # Histogram/summary child samples (_bucket/_sum/_count) share
            # the parent family header.
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix):
                    base = name[: -len(suffix)]
            if base == name or base not in self._families:
                lines.append(f"# HELP {name} {family['help']}")
                lines.append(f"# TYPE {name} {family['kind']}")
            for labels, value in family["samples"]:
                if labels:
                    parts = [f'{key}="{_escape_label_value(val)}"'
                             for key, val in labels.items()]
                    lines.append(f"{name}{{{','.join(parts)}}} {_format_value(value)}")
                else:
                    lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def _collect(out: _Families, snapshot: Mapping[str, Any], prefix: str,
             base: Optional[Mapping[str, str]]) -> None:
    """Append one snapshot's samples (labeled with ``base``) to ``out``."""

    def labeled(extra: Optional[Mapping[str, str]] = None) -> Optional[Dict[str, str]]:
        if not base and not extra:
            return None
        merged: Dict[str, str] = dict(base) if base else {}
        if extra:
            merged.update(extra)
        return merged

    counters = (
        ("requests_total", "Requests accepted into the queue."),
        ("responses_total", "Requests answered by a worker."),
        ("errors_total", "Requests failed inside a worker."),
        ("rejected_total", "Requests shed by backpressure or validation."),
        ("batches_total", "Micro-batches executed."),
    )
    for key, help_text in counters:
        if key in snapshot:
            out.sample(f"{prefix}_{key}", "counter", help_text,
                       float(snapshot[key]), labeled())

    if "uptime_s" in snapshot:
        out.sample(f"{prefix}_uptime_seconds", "gauge",
                   "Seconds since the metrics sink started.",
                   float(snapshot["uptime_s"]), labeled())
    if "queue_depth" in snapshot:
        out.sample(f"{prefix}_queue_depth", "gauge",
                   "Requests currently waiting in the queue.",
                   float(snapshot["queue_depth"]), labeled())
    if "mean_batch_size" in snapshot:
        out.sample(f"{prefix}_mean_batch_size", "gauge",
                   "Mean executed micro-batch size.",
                   float(snapshot["mean_batch_size"]), labeled())

    histogram = snapshot.get("batch_size_histogram")
    if isinstance(histogram, Mapping) and histogram:
        name = f"{prefix}_batch_size"
        help_text = "Distribution of executed micro-batch sizes."
        out.family(name, "histogram", help_text)  # header-only parent
        sizes = sorted((int(size), int(count)) for size, count in histogram.items())
        cumulative = 0
        total = 0.0
        for size, count in sizes:
            cumulative += count
            total += size * count
            out.sample(f"{name}_bucket", "histogram", help_text, cumulative,
                       labeled({"le": str(size)}))
        out.sample(f"{name}_bucket", "histogram", help_text, cumulative,
                   labeled({"le": "+Inf"}))
        out.sample(f"{name}_sum", "histogram", help_text, total, labeled())
        out.sample(f"{name}_count", "histogram", help_text, cumulative, labeled())

    latency = snapshot.get("latency")
    if isinstance(latency, Mapping):
        out.sample(f"{prefix}_latency_window", "gauge",
                   "Requests in the rolling latency window.",
                   float(latency.get("window", 0.0)), labeled())
        quantile_keys = sorted(key for key in latency if _QUANTILE_KEY.match(key))
        for key in quantile_keys:
            quantile = float(key[1:-3]) / 100.0
            out.sample(f"{prefix}_latency_ms", "gauge",
                       "Request latency quantiles over the rolling window (ms).",
                       float(latency[key]), labeled({"quantile": f"{quantile:g}"}))
        for key, label in (("mean_ms", "Mean"), ("max_ms", "Max")):
            if key in latency:
                out.sample(f"{prefix}_latency_{key[:-3]}_ms", "gauge",
                           f"{label} request latency over the rolling window (ms).",
                           float(latency[key]), labeled())

    drift = snapshot.get("drift")
    if isinstance(drift, Mapping):
        for key, value in sorted(drift.items()):
            if isinstance(value, bool):
                value = float(value)
            if not isinstance(value, (int, float)):
                continue
            out.sample(f"{prefix}_drift_{key}", "gauge",
                       f"Spike-count drift detector field {key!r}.",
                       float(value), labeled())

    # Router/shard hardening series (absent from plain pool snapshots, so
    # historical single-model output is unchanged).
    hardening = (
        ("rate_limited_total", "counter",
         "Requests rejected by per-tenant rate limiting."),
        ("shed_total", "counter",
         "Requests shed by the model's open circuit breaker."),
        ("retries_total", "counter",
         "Transparent retries after transient shard failures."),
    )
    for key, kind, help_text in hardening:
        if key in snapshot:
            out.sample(f"{prefix}_{key}", kind, help_text,
                       float(snapshot[key]), labeled())

    shards = snapshot.get("shards")
    if isinstance(shards, Mapping):
        out.sample(f"{prefix}_shards", "gauge",
                   "Configured worker-process shards.",
                   float(shards.get("count", 0)), labeled())
        out.sample(f"{prefix}_shards_alive", "gauge",
                   "Worker-process shards currently alive.",
                   float(shards.get("alive", 0)), labeled())
        out.sample(f"{prefix}_shard_respawns_total", "counter",
                   "Crashed shards respawned by the supervisor.",
                   float(shards.get("respawns_total", 0)), labeled())

    circuit = snapshot.get("circuit")
    if isinstance(circuit, Mapping):
        out.sample(f"{prefix}_circuit_breaker_open", "gauge",
                   "1 while the model's circuit breaker is not closed.",
                   0.0 if circuit.get("state") == "closed" else 1.0, labeled())
        out.sample(f"{prefix}_circuit_breaker_opened_total", "counter",
                   "Times the model's circuit breaker opened.",
                   float(circuit.get("opened_total", 0)), labeled())

    info_labels: Dict[str, str] = {}
    for key in ("backend", "model"):
        if snapshot.get(key) is not None:
            info_labels[key] = str(snapshot[key])
    if info_labels:
        if base and "model" in base:
            # The base "model" label is the serving entry key; keep the
            # artifact's model identity under a distinct label name.
            info_labels["model_class"] = info_labels.pop("model")
        out.sample(f"{prefix}_info", "gauge",
                   "Deployment identity (constant 1; identity in labels).",
                   1.0, labeled(info_labels))


def render_prometheus(snapshot: Mapping[str, Any], prefix: str = METRIC_PREFIX) -> str:
    """Render a metrics snapshot as Prometheus text exposition format.

    ``snapshot`` is the dictionary produced by
    :meth:`repro.serving.metrics.ServingMetrics.snapshot` /
    :meth:`repro.serving.pool.ServingPool.metrics_snapshot`; unknown keys
    are ignored, missing keys are simply not exported, so the renderer
    tolerates both bare-metrics and pool-level snapshots.
    """
    out = _Families()
    _collect(out, snapshot, prefix, None)
    return out.text()


def render_prometheus_multi(snapshots: Mapping[str, Mapping[str, Any]],
                            prefix: str = METRIC_PREFIX) -> str:
    """Render many per-model snapshots into one exposition document.

    ``snapshots`` maps a serving entry key (``name`` or ``name@v000N``) to
    that model's metrics snapshot; every sample carries a ``model`` label
    with the key, and each family appears exactly once however many models
    contribute to it.
    """
    out = _Families()
    for key, snapshot in snapshots.items():
        _collect(out, snapshot, prefix, {"model": str(key)})
    return out.text()


def parse_prometheus_text(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse (and thereby validate) Prometheus text exposition format.

    Returns ``{metric_name: {((label, value), ...): sample_value}}``.

    Samples with no preceding ``# TYPE`` header (untyped "info" lines, as
    some exporters emit) are accepted — any number of them.  What is *not*
    accepted is the same metric family declared twice: a second ``# TYPE``
    for a name already typed means the document interleaves families, which
    Prometheus itself rejects at scrape time.

    Raises
    ------
    ValueError
        If any non-empty line is neither a ``# HELP``/``# TYPE`` header
        nor a well-formed ``name{labels} value`` sample, if a ``# TYPE``
        names an unknown type, if a metric family is declared by ``# TYPE``
        more than once, or if a sample value is not a number.
    """
    samples: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    typed_families: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: comment is neither # HELP nor # TYPE: {raw!r}")
            if not _METRIC_NAME.match(parts[2]):
                raise ValueError(f"line {lineno}: invalid metric name {parts[2]!r}")
            if parts[1] == "TYPE":
                if len(parts) < 4 or parts[3].split()[0] not in _TYPES:
                    raise ValueError(f"line {lineno}: invalid metric type in {raw!r}")
                family = parts[2]
                if family in typed_families:
                    raise ValueError(
                        f"line {lineno}: duplicate metric family {family!r} "
                        f"(# TYPE already declared on line "
                        f"{typed_families[family]}; all samples of a family "
                        "must sit under a single header)"
                    )
                typed_families[family] = lineno
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample line {raw!r}")
        labels: Dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            for part in _split_labels(label_text, lineno):
                label_match = _LABEL.match(part)
                if not label_match:
                    raise ValueError(f"line {lineno}: malformed label {part!r}")
                labels[label_match.group("key")] = label_match.group("value")
        value_text = match.group("value")
        if value_text in ("+Inf", "Inf"):
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        elif value_text == "NaN":
            value = math.nan
        else:
            try:
                value = float(value_text)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: sample value {value_text!r} is not a number"
                ) from None
        key = tuple(sorted(labels.items()))
        samples.setdefault(match.group("name"), {})[key] = value
    return samples


def _split_labels(label_text: str, lineno: int) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in label_text:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if in_quotes:
        raise ValueError(f"line {lineno}: unterminated label value")
    if current:
        parts.append("".join(current))
    return [part for part in parts if part]

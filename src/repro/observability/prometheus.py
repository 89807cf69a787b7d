"""Prometheus text exposition rendering (and a validating parser).

:func:`render_prometheus` renders one or more
:class:`~repro.observability.metrics.MetricsRegistry` instances in the
Prometheus text exposition format (version 0.0.4) served on every metrics
endpoint (serving ``GET /v1/metrics``, the runner's ``GET /metrics``):
counters as ``counter`` samples, gauges (queue depth, uptime, window sizes,
latency quantiles, the info-style identity gauge
``repro_serving_info{backend="sparse",...} 1``) as ``gauge`` samples, and
the batch-size histogram as a cumulative ``histogram``
(``_bucket{le=...}`` / ``_sum`` / ``_count``).

Everything is stdlib string formatting, no client library.  The inverse,
:func:`parse_prometheus_text`, is a strict line-level parser used by the
CI serving smoke test and the endpoint tests to prove the output is
well-formed.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Content type of the text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Prefix of every exported serving metric.
METRIC_PREFIX = "repro_serving"

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')

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
    single ``# HELP``/``# TYPE`` header pair; interleaving families (as a
    naive per-model loop over a line writer would) is malformed.  Collecting
    into families first makes the multi-model rendering correct by
    construction.  A histogram's ``_bucket``/``_sum``/``_count`` samples name
    their parent ``family``; every other sample is a family of its own.
    """

    def __init__(self) -> None:
        self._families: Dict[str, Dict[str, Any]] = {}

    def sample(self, name, kind, help_text, value, labels=None, family=None) -> None:
        entry = self._families.setdefault(
            family or name, {"kind": kind, "help": help_text, "samples": []}
        )
        entry["samples"].append((name, dict(labels) if labels else None, float(value)))

    def text(self) -> str:
        lines: List[str] = []
        for family, entry in self._families.items():
            lines.append(f"# HELP {family} {entry['help']}")
            lines.append(f"# TYPE {family} {entry['kind']}")
            for name, labels, value in entry["samples"]:
                if labels:
                    parts = [f'{key}="{_escape_label_value(val)}"' for key, val in labels.items()]
                    lines.append(f"{name}{{{','.join(parts)}}} {_format_value(value)}")
                else:
                    lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def render_prometheus(parts: Iterable[Tuple[Any, Optional[Mapping[str, str]]]]) -> str:
    """Render ``(registry, base_labels)`` pairs as one text exposition, one
    header per family however many registries contribute to it (``None``:
    unlabelled; ``/v1/metrics`` labels each model's registries
    ``{"model": key}``)."""
    out = _Families()
    for registry, labels in parts:
        registry.collect(out, labels)
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

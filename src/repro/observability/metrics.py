"""One metrics registry: each metric declared once, exported as JSON and as text.

A :class:`MetricsRegistry` holds the metrics of one component (a serving
pool, a router entry, the router, the experiment runner), each declared once
with its name, kind, help text and JSON key.  :meth:`~MetricsRegistry.snapshot`
is the ``/metrics.json`` payload, and :meth:`~MetricsRegistry.collect` feeds
the same values to :func:`repro.observability.prometheus.render_prometheus`.

Every mutation takes the registry's one re-entrant ``lock``; an owner that
updates several metrics at once holds it around them, so a scrape sees all
of the update or none of it.  A scrape copies the state under the lock and
computes quantiles and calls ``read`` callables outside it.  A metric named
``None`` is JSON only, one keyed ``None`` is text only, and a ``None`` value
is in neither.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive_int

Labels = Optional[Mapping[str, str]]

#: Default ``key``: the metric's JSON key is its name.
_SAME = "<name>"


def _labelled(base: Labels, extra: Labels = None) -> Labels:
    """``base`` plus ``extra``; an extra label that ``base`` already claims
    (an info gauge's ``model`` under the multi-model ``model`` label) is
    kept as ``<label>_class``."""
    if not base and not extra:
        return None
    merged = dict(base or {})
    for label, value in (extra or {}).items():
        merged[f"{label}_class" if base and label in base else label] = value
    return merged


class _Metric:
    """``_capture`` copies the state (lock held), ``_export`` turns the copy
    into the JSON value, ``_samples`` adds that value's text samples."""

    kind = "gauge"
    _lock: threading.RLock  # the registry's, set by MetricsRegistry.add

    def __init__(self, name: Optional[str], help_text: str, key: Optional[str]) -> None:
        self.name = name
        self.help = help_text
        self.key = name if key == _SAME else key

    def _export(self, captured: Any) -> Any:
        return captured


class _Scalar(_Metric):
    """One value, owned or (with ``read``) read at scrape time; ``labels``,
    a callable, adds identity labels to the sample (an info gauge)."""

    def __init__(self, name, help_text="", *, key=_SAME, value=0, read=None, labels=None):
        super().__init__(name, help_text, key)
        self._value = value
        self._read = read
        self._labels = labels

    @property
    def value(self) -> Any:
        if self._read is not None:
            return self._read()
        with self._lock:
            return self._value

    def _capture(self) -> Any:
        return self._value

    def _export(self, captured: Any) -> Any:
        return captured if self._read is None else self._read()

    def _samples(self, out, prefix: str, value: Any, labels: Labels) -> None:
        if self._labels is not None:
            labels = _labelled(labels, self._labels())
        name = f"{prefix}_{self.name}"
        if not isinstance(value, Mapping):
            out.sample(name, self.kind, self.help, value, labels)
            return
        for field, item in sorted(value.items()):  # one gauge per numeric field
            if isinstance(item, (bool, int, float)):
                out.sample(f"{name}_{field}", self.kind, f"{self.help} {field!r}.", item, labels)


class Counter(_Scalar):
    """A count that only goes up (with ``read``: a count owned elsewhere)."""

    kind = "counter"

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount


class Gauge(_Scalar):
    """A value that is set, or read at scrape time."""

    def set(self, value: Any) -> None:
        with self._lock:
            self._value = value


class Histogram(_Metric):
    """Count per exact observed value; JSON ``{"<value>": count}``, text a
    cumulative histogram with one ``le`` bucket per observed value."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str, *, key: Optional[str] = _SAME) -> None:
        super().__init__(name, help_text, key)
        self._counts: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        with self._lock:
            self._counts[int(value)] = self._counts.get(int(value), 0) + 1

    def mean(self) -> Optional[float]:
        """Mean observed value (``None`` before the first observation)."""
        with self._lock:
            count = sum(self._counts.values())
            total = sum(value * times for value, times in self._counts.items())
        return total / count if count else None

    def _capture(self) -> Dict[int, int]:
        return dict(self._counts)

    def _export(self, captured: Dict[int, int]) -> Dict[str, int]:
        return {str(value): captured[value] for value in sorted(captured)}

    def _samples(self, out, prefix: str, value: Dict[str, int], labels: Labels) -> None:
        if not value:
            return
        name = f"{prefix}_{self.name}"
        cumulative = total = 0
        for bound, count in value.items():
            cumulative += count
            total += int(bound) * count
            le = _labelled(labels, {"le": bound})
            out.sample(f"{name}_bucket", self.kind, self.help, cumulative, le, family=name)
        le = _labelled(labels, {"le": "+Inf"})
        out.sample(f"{name}_bucket", self.kind, self.help, cumulative, le, family=name)
        out.sample(f"{name}_sum", self.kind, self.help, total, labels, family=name)
        out.sample(f"{name}_count", self.kind, self.help, cumulative, labels, family=name)


class Window(_Metric):
    """The most recent ``size`` observations, one window per label value if
    declared with a ``label``.

    JSON: ``{count_key, mean_<unit>, max_<unit>, p<q>_<unit>...}``, or one
    such dict per label value, sorted.  Text: the four gauge ``families``
    (count, quantiles under a ``quantile`` label, mean, max).
    """

    def __init__(self, key, help_text, *, size, quantiles, unit, count_key, families, label=None):
        super().__init__(key, help_text, key)
        self.size = check_positive_int(size, "size")
        self.quantiles = tuple(quantiles)
        self.unit = unit
        self.count_key = count_key
        self.families: Tuple[str, str, str, str] = families
        self.label = label
        self._windows: Dict[Optional[str], deque] = {}
        if label is None:
            self._windows[None] = deque(maxlen=self.size)

    def extend(self, values, label: Optional[str] = None) -> None:
        with self._lock:
            window = self._windows.get(label)
            if window is None:
                window = self._windows[label] = deque(maxlen=self.size)
            window.extend(values)

    def _capture(self) -> Dict[Optional[str], np.ndarray]:
        return {label: np.asarray(window, dtype=float) for label, window in self._windows.items()}

    def _stats(self, values: np.ndarray) -> Dict[str, float]:
        unit, empty = self.unit, values.size == 0
        stats = {self.count_key: float(values.size)}
        stats[f"mean_{unit}"] = 0.0 if empty else float(values.mean())
        stats[f"max_{unit}"] = 0.0 if empty else float(values.max())
        for q in self.quantiles:
            stats[f"p{q}_{unit}"] = 0.0 if empty else float(np.percentile(values, q))
        return stats

    def _export(self, captured: Dict[Optional[str], np.ndarray]) -> Dict[str, Any]:
        if self.label is None:
            return self._stats(captured[None])
        return {label: self._stats(captured[label]) for label in sorted(captured)}

    def _samples(self, out, prefix: str, value: Dict[str, Any], labels: Labels) -> None:
        count, quantiles, mean, peak = (f"{prefix}_{family}" for family in self.families)
        unit, kind, help_text = self.unit, self.kind, self.help
        for label, stats in value.items() if self.label else [(None, value)]:
            own = _labelled(labels, {self.label: label} if self.label else None)
            observed = stats[self.count_key]
            out.sample(count, kind, f"{help_text}: observations in the window.", observed, own)
            for q in self.quantiles:
                at = _labelled(own, {"quantile": f"{q / 100.0:g}"})
                out.sample(quantiles, kind, f"{help_text}: quantiles.", stats[f"p{q}_{unit}"], at)
            out.sample(mean, kind, f"{help_text}: mean.", stats[f"mean_{unit}"], own)
            out.sample(peak, kind, f"{help_text}: max.", stats[f"max_{unit}"], own)


class MetricsRegistry:
    """Declared metrics of one component behind one re-entrant lock; every
    exported name starts with ``prefix`` (``repro_serving``, ...)."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.lock = threading.RLock()
        self.started_at = time.time()
        self._metrics: List[_Metric] = []

    def add(self, metric):
        """Declare ``metric`` (any kind) on this registry and return it."""
        metric._lock = self.lock
        self._metrics.append(metric)
        return metric

    def counter(self, name: str, help_text: str, **options) -> Counter:
        return self.add(Counter(name, help_text, **options))

    def gauge(self, name: Optional[str], help_text: str = "", **options) -> Gauge:
        return self.add(Gauge(name, help_text, **options))

    def histogram(self, name: str, help_text: str, **options) -> Histogram:
        return self.add(Histogram(name, help_text, **options))

    def window(self, key: str, help_text: str, **options) -> Window:
        return self.add(Window(key, help_text, **options))

    def uptime(self) -> Gauge:
        """Declare the ``uptime_seconds`` gauge: seconds since the registry
        was created (JSON ``uptime_s``)."""
        return self.gauge(
            "uptime_seconds",
            "Seconds since the metrics sink started.",
            key="uptime_s",
            read=lambda: time.time() - self.started_at,
        )

    def _values(self) -> List[Tuple[_Metric, Any]]:
        with self.lock:
            captured = [(metric, metric._capture()) for metric in self._metrics]
        return [(metric, metric._export(state)) for metric, state in captured]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view of every keyed metric; a dotted key
        (``shards.alive``) nests under its section."""
        snapshot: Dict[str, Any] = {}
        for metric, value in self._values():
            if value is None or metric.key is None:
                continue
            *sections, leaf = metric.key.split(".")
            parent = snapshot
            for section in sections:
                parent = parent.setdefault(section, {})
            parent[leaf] = value
        return snapshot

    def collect(self, out, labels: Labels = None) -> None:
        """Add every named metric's samples, under ``labels``, to ``out``
        (a :class:`repro.observability.prometheus._Families`)."""
        for metric, value in self._values():
            if value is not None and metric.name is not None:
                metric._samples(out, self.prefix, value, labels)

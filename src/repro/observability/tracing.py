"""Stdlib-only distributed tracing: trace contexts, spans, propagation.

A :class:`TraceContext` is the (``trace_id``, ``span_id``,
``parent_span_id``) triple that follows one request or one runner job across
every thread and process it touches.  Trace ids are *deterministic where a
seed exists* — :func:`trace_id_for_request` derives one from the request's
resolved encoding seed and :func:`trace_id_for_job` from the job's content
key — so replaying the same work reproduces the same trace identity.

Spans are phase timers.  ``with span("shard_rpc"):`` opens a child span of
the current context, times the block, and appends one ``kind="span"`` record
to the active sink (a :class:`~repro.observability.ledger.RunLedger` or any
object with ``append``); :func:`record_span` writes a span whose duration
was measured externally (e.g. queue wait computed from an enqueue
timestamp).  The current context and sink live in :mod:`contextvars`, so an
inactive trace costs one contextvar read — the serving hot path pays nothing
until a caller sends ``X-Repro-Trace-Id``.

Propagation is explicit at every boundary the stack crosses:

* HTTP: :data:`TRACE_HEADER` carries the trace id in and back out;
* shard Pipe RPC: :meth:`TraceContext.to_dict` rides in the envelope;
* runner workers: the scheduler passes the job span's context (and the
  ledger root) as extra ``spawn`` arguments.

Because every span lands in the ledger, the ledger *is* the trace store:
``repro trace show <trace_id>`` rebuilds the cross-process span tree (see
:mod:`repro.observability.trace_view`).
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import itertools
import os
import re
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional

#: HTTP header carrying the trace id into (and back out of) ``/v1`` routes.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Environment variable: a truthy value traces every served request even
#: without an incoming :data:`TRACE_HEADER` (ids derived from request seeds).
TRACE_ENV = "REPRO_TRACE"

#: Ledger entry kind of one recorded span.
KIND_SPAN = "span"

#: Accepted shape of an externally supplied trace id.
TRACE_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_current: "contextvars.ContextVar[Optional[TraceContext]]" = contextvars.ContextVar(
    "repro_trace_context", default=None
)
_sink: "contextvars.ContextVar[Optional[Any]]" = contextvars.ContextVar(
    "repro_trace_sink", default=None
)

# Tie-breaker folded into generated span ids so two spans opened in the same
# process never collide, whatever their names.
_span_counter = itertools.count()


def tracing_forced() -> bool:
    """Whether :data:`TRACE_ENV` asks for tracing without a client header."""
    return os.environ.get(TRACE_ENV, "").strip().lower() not in (
        "", "0", "false", "no", "off",
    )


def derive_trace_id(*parts: Any) -> str:
    """Deterministic 16-hex-char trace id from ``parts``."""
    canonical = "\x1f".join(str(part) for part in parts)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def trace_id_for_request(seed: Any) -> str:
    """Trace id of a served request, derived from its resolved seed."""
    return derive_trace_id("request", seed)


def trace_id_for_job(key: str) -> str:
    """Trace id of a runner job, derived from its content key."""
    return derive_trace_id("job", key)


def new_trace_id() -> str:
    """A random trace id, for requests with no seed to derive one from."""
    return uuid.uuid4().hex[:16]


def _refresh_span_prefix() -> None:
    global _span_prefix
    _span_prefix = os.urandom(4).hex()


# Span ids must be unique, not unguessable: a random per-process prefix plus
# a monotonic counter is collision-free within a process and 2^32-diverse
# across processes, at a fraction of the cost of hashing a fresh UUID per
# span — ids are minted on the serving hot path, several per request.  The
# prefix is re-drawn after fork so child workers never mint parent ids.
_refresh_span_prefix()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_refresh_span_prefix)


def _new_span_id() -> str:
    return f"{_span_prefix}{next(_span_counter) & 0xFFFFFFFFFFFF:012x}"


@dataclass(frozen=True)
class TraceContext:
    """One position in a trace: which span is current, and under what parent.

    A context with ``span_id=None`` is a *root scope* (a bare trace id that
    arrived over the wire); its first child span becomes a root of the span
    tree.  Contexts are immutable — :meth:`child` derives, never mutates.
    """

    trace_id: str
    span_id: Optional[str] = None
    parent_span_id: Optional[str] = None
    retry: int = 0

    def child(self, retry: Optional[int] = None) -> "TraceContext":
        """A fresh span context parented under this one."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_new_span_id(),
            parent_span_id=self.span_id,
            retry=self.retry if retry is None else int(retry),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON/Pipe-safe form for crossing a process boundary."""
        payload: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.span_id is not None:
            payload["span_id"] = self.span_id
        if self.parent_span_id is not None:
            payload["parent_span_id"] = self.parent_span_id
        if self.retry:
            payload["retry"] = int(self.retry)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceContext":
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=payload.get("span_id"),
            parent_span_id=payload.get("parent_span_id"),
            retry=int(payload.get("retry", 0)),
        )

    @classmethod
    def from_headers(cls, headers: Mapping[str, str]) -> Optional["TraceContext"]:
        """Root scope from an incoming header set; ``None`` without one.

        Raises :class:`ValueError` when the header is present but malformed
        (the HTTP layer maps that to a 400).
        """
        value = None
        for key in (TRACE_HEADER, TRACE_HEADER.lower()):
            if key in headers:
                value = headers[key]
                break
        if value is None:
            return None
        value = str(value).strip()
        if not TRACE_ID_PATTERN.match(value):
            raise ValueError(
                f"invalid {TRACE_HEADER} value {value!r} (expected 1..64 "
                "characters of [A-Za-z0-9._-], starting alphanumeric)"
            )
        return cls(trace_id=value)


def current_trace() -> Optional[TraceContext]:
    """The active trace context of this thread, if any."""
    return _current.get()


def trace_fields() -> Dict[str, Any]:
    """``{"trace_id": ..., "span_id": ...}`` of the active context, or ``{}``.

    What :class:`~repro.observability.structlog.StructLogger` and
    :class:`~repro.observability.ledger.RunLedger` stamp onto every event and
    entry emitted inside an active span.
    """
    context = _current.get()
    if context is None:
        return {}
    fields: Dict[str, Any] = {"trace_id": context.trace_id}
    if context.span_id is not None:
        fields["span_id"] = context.span_id
    return fields


@contextlib.contextmanager
def trace_scope(context: Optional[TraceContext],
                sink: Optional[Any] = None) -> Iterator[Optional[TraceContext]]:
    """Make ``context`` (and optionally ``sink``) current for the block.

    ``context=None`` is a no-op scope, so call sites can wrap
    unconditionally without branching on whether tracing is active.
    """
    if context is None:
        yield None
        return
    token = _current.set(context)
    sink_token = _sink.set(sink) if sink is not None else None
    try:
        yield context
    finally:
        _current.reset(token)
        if sink_token is not None:
            _sink.reset(sink_token)


def record_span(sink: Optional[Any], context: Optional[TraceContext],
                name: str, duration_s: float, **fields: Any) -> Optional[Dict[str, Any]]:
    """Append one span record for an externally timed phase.

    ``context`` must be a span context (``span_id`` set), typically made
    with :meth:`TraceContext.child`.  Returns the record, or ``None`` when
    either the sink or the context is absent (tracing inactive).
    """
    if sink is None or context is None or context.span_id is None:
        return None
    entry: Dict[str, Any] = {
        "kind": KIND_SPAN,
        "trace_id": context.trace_id,
        "span_id": context.span_id,
        "name": str(name),
        "pid": os.getpid(),
        "duration_ms": round(float(duration_s) * 1000.0, 3),
    }
    if context.parent_span_id is not None:
        entry["parent_span_id"] = context.parent_span_id
    if context.retry:
        entry["retry"] = int(context.retry)
    entry.update(fields)
    if hasattr(sink, "append"):
        return sink.append(entry)
    return sink(entry)


class Span:
    """Timed span context manager; inert when no trace is active.

    ``with span("kernel", shared_batch=4):`` opens a child of the current
    context, makes it current for the block, and on exit appends one span
    record (name, pid, duration, retry, extra fields) to the sink — the one
    passed explicitly, else the contextvar sink installed by
    :func:`trace_scope`.
    """

    __slots__ = ("name", "fields", "_sink", "_retry", "context",
                 "_token", "_started")

    def __init__(self, name: str, *, sink: Optional[Any] = None,
                 retry: Optional[int] = None, **fields: Any) -> None:
        self.name = name
        self.fields = fields
        self._sink = sink
        self._retry = retry
        self.context: Optional[TraceContext] = None
        self._token = None
        self._started = 0.0

    @property
    def active(self) -> bool:
        return self.context is not None

    def __enter__(self) -> "Span":
        parent = _current.get()
        if parent is None:
            return self
        self.context = parent.child(retry=self._retry)
        self._token = _current.set(self.context)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.context is None:
            return
        duration = time.perf_counter() - self._started
        _current.reset(self._token)
        self._token = None
        sink = self._sink if self._sink is not None else _sink.get()
        record_span(sink, self.context, self.name, duration, **self.fields)


def span(name: str, *, sink: Optional[Any] = None,
         retry: Optional[int] = None, **fields: Any) -> Span:
    """Convenience constructor for :class:`Span` (reads as a verb)."""
    return Span(name, sink=sink, retry=retry, **fields)

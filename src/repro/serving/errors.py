"""Structured serving errors: one JSON envelope for every failure.

Every error the ``/v1`` API returns has the same shape::

    {"error": {"code": "rate_limited", "message": "...", "detail": {...}}}

``code`` is a stable machine-readable identifier from the small vocabulary
below, ``message`` is human-readable, and ``detail`` carries optional
structured context (the offending field, the retry budget, ...).  The
:class:`~repro.client.ServingClient` raises typed exceptions mirroring the
same vocabulary, so a client never has to parse prose.

Retryable rejections (rate limiting, queue backpressure, an open circuit
breaker) additionally carry ``retry_after_s``, which the HTTP layer turns
into a ``Retry-After`` response header.
"""

from __future__ import annotations

from typing import Dict, Optional

# -- stable error codes ------------------------------------------------------

CODE_INVALID_REQUEST = "invalid_request"
CODE_NOT_FOUND = "not_found"
CODE_PAYLOAD_TOO_LARGE = "payload_too_large"
CODE_RATE_LIMITED = "rate_limited"
CODE_QUEUE_FULL = "queue_full"
CODE_CIRCUIT_OPEN = "circuit_open"
CODE_SHUTTING_DOWN = "shutting_down"
CODE_UPSTREAM_FAILURE = "upstream_failure"
CODE_TIMEOUT = "timeout"
CODE_INTERNAL = "internal"

#: Default HTTP status of each code (the handler may override).
CODE_STATUS: Dict[str, int] = {
    CODE_INVALID_REQUEST: 400,
    CODE_NOT_FOUND: 404,
    CODE_PAYLOAD_TOO_LARGE: 413,
    CODE_RATE_LIMITED: 429,
    CODE_QUEUE_FULL: 429,
    CODE_CIRCUIT_OPEN: 503,
    CODE_SHUTTING_DOWN: 503,
    CODE_UPSTREAM_FAILURE: 503,
    CODE_TIMEOUT: 504,
    CODE_INTERNAL: 500,
}


def error_envelope(code: str, message: str,
                   detail: Optional[dict] = None) -> dict:
    """The canonical JSON error body (``detail`` is always present)."""
    return {"error": {"code": str(code), "message": str(message),
                      "detail": dict(detail) if detail else None}}


class ApiError(Exception):
    """A serving failure with a stable code, HTTP status, and detail.

    The HTTP handler serializes any raised :class:`ApiError` straight into
    the JSON envelope; everything the response needs rides on the
    exception, so the routing layer can raise from any depth.
    """

    def __init__(self, code: str, message: str, *,
                 status: Optional[int] = None,
                 detail: Optional[dict] = None,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.status = int(status if status is not None
                          else CODE_STATUS.get(code, 500))
        self.detail = dict(detail) if detail else None
        self.retry_after_s = retry_after_s

    def envelope(self) -> dict:
        return error_envelope(self.code, self.message, self.detail)

    @property
    def retry_after_header(self) -> Optional[str]:
        """``Retry-After`` header value (integer seconds, >= 1) if any."""
        if self.retry_after_s is None:
            return None
        return str(max(1, int(-(-float(self.retry_after_s) // 1))))


class RateLimitedError(ApiError):
    """A tenant exhausted its token bucket; retry after the bucket refills."""

    def __init__(self, message: str, *, retry_after_s: float,
                 detail: Optional[dict] = None) -> None:
        super().__init__(CODE_RATE_LIMITED, message,
                         retry_after_s=retry_after_s, detail=detail)


class CircuitOpenError(ApiError):
    """The model's circuit breaker is shedding load; retry after reset."""

    def __init__(self, message: str, *, retry_after_s: float,
                 detail: Optional[dict] = None) -> None:
        super().__init__(CODE_CIRCUIT_OPEN, message,
                         retry_after_s=retry_after_s, detail=detail)


class ModelNotFoundError(ApiError):
    """No such model (or version) in the registry or the loaded set."""

    def __init__(self, message: str, detail: Optional[dict] = None) -> None:
        super().__init__(CODE_NOT_FOUND, message, detail=detail)


class ShardCrashedError(RuntimeError):
    """A shard process died (or hung past its deadline) mid-request.

    Transient by design: the dispatcher respawns the shard, so a bounded
    retry at the routing layer normally succeeds.  Only when retries are
    exhausted does the HTTP layer surface it as a 503 envelope.
    """

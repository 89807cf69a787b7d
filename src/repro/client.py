"""Stdlib client for the serving API: typed errors, jittered retries.

:class:`ServingClient` speaks the versioned ``/v1`` surface of
:class:`~repro.serving.server.ModelServer` using nothing but ``urllib``.
The server's structured error envelope::

    {"error": {"code": "rate_limited", "message": "...", "detail": {...}}}

is mirrored one-to-one into the exception hierarchy below, so callers
dispatch on types instead of parsing prose, and ``Retry-After`` headers are
honoured by the built-in retry loop: retryable failures (429s, 503s, and
transport errors) are re-attempted up to ``retries`` times with jittered
exponential backoff before the typed error reaches the caller.

Example
-------
::

    client = ServingClient("http://127.0.0.1:8000")
    body = client.predict(image, seed=7, model="mnist")
    body["prediction"]           # int
    client.models()              # catalogue of served models
    client.health("mnist")       # per-model health payload
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.observability.prometheus import parse_prometheus_text
from repro.observability.tracing import TRACE_HEADER
from repro.serving.errors import (
    CODE_CIRCUIT_OPEN,
    CODE_INTERNAL,
    CODE_INVALID_REQUEST,
    CODE_NOT_FOUND,
    CODE_PAYLOAD_TOO_LARGE,
    CODE_QUEUE_FULL,
    CODE_RATE_LIMITED,
    CODE_SHUTTING_DOWN,
    CODE_TIMEOUT,
    CODE_UPSTREAM_FAILURE,
)

__all__ = [
    "ServingClient",
    "ServingClientError",
    "ServingAPIError",
    "ClientInvalidRequestError",
    "ClientNotFoundError",
    "ClientRateLimitedError",
    "ClientUnavailableError",
    "ClientTimeoutError",
    "TransportError",
]


class ServingClientError(Exception):
    """Base class of everything :class:`ServingClient` raises."""


class TransportError(ServingClientError):
    """The server could not be reached (connection refused, reset, DNS)."""


class ServingAPIError(ServingClientError):
    """A structured error envelope returned by the server.

    Attributes mirror the envelope: ``code``, ``message``, ``detail``, plus
    the HTTP ``status`` and the parsed ``retry_after_s`` when the response
    carried a ``Retry-After`` header.
    """

    #: Envelope codes this class (and subclasses) are responsible for.
    codes: Sequence[str] = ()
    #: Whether the failure is worth retrying automatically.
    retryable = False

    def __init__(self, code: str, message: str, *, status: int,
                 detail: Optional[dict] = None,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.status = int(status)
        self.detail = detail
        self.retry_after_s = retry_after_s


class ClientInvalidRequestError(ServingAPIError):
    """The request was malformed (bad image, bad seed, oversized body)."""

    codes = (CODE_INVALID_REQUEST, CODE_PAYLOAD_TOO_LARGE)


class ClientNotFoundError(ServingAPIError):
    """Unknown route, model, or model version."""

    codes = (CODE_NOT_FOUND,)


class ClientRateLimitedError(ServingAPIError):
    """Shed by rate limiting or queue backpressure (HTTP 429)."""

    codes = (CODE_RATE_LIMITED, CODE_QUEUE_FULL)
    retryable = True


class ClientUnavailableError(ServingAPIError):
    """Transient server-side unavailability (HTTP 5xx worth retrying)."""

    codes = (CODE_CIRCUIT_OPEN, CODE_SHUTTING_DOWN, CODE_UPSTREAM_FAILURE,
             CODE_INTERNAL)
    retryable = True


class ClientTimeoutError(ServingAPIError):
    """The server gave up waiting for a worker (HTTP 504)."""

    codes = (CODE_TIMEOUT,)
    retryable = True


_CODE_CLASSES: Dict[str, type] = {
    code: cls
    for cls in (ClientInvalidRequestError, ClientNotFoundError,
                ClientRateLimitedError, ClientUnavailableError,
                ClientTimeoutError)
    for code in cls.codes
}


def _error_from_response(status: int, body: bytes,
                         retry_after: Optional[str]) -> ServingAPIError:
    """Typed exception for an HTTP error response (envelope or not)."""
    code: Optional[str] = None
    message = body.decode("utf-8", "replace").strip() or f"HTTP {status}"
    detail: Optional[dict] = None
    try:
        payload = json.loads(body.decode("utf-8"))
        envelope = payload.get("error") if isinstance(payload, dict) else None
        if isinstance(envelope, dict):
            code = str(envelope.get("code", CODE_INTERNAL))
            message = str(envelope.get("message", message))
            detail = envelope.get("detail")
        elif isinstance(envelope, str):  # pre-1.7 servers: {"error": "..."}
            message = envelope
    except (ValueError, UnicodeDecodeError):
        pass
    retry_after_s: Optional[float] = None
    if retry_after is not None:
        try:
            retry_after_s = float(retry_after)
        except ValueError:
            pass
    cls = _CODE_CLASSES.get(code) if code is not None else None
    if cls is None:
        # No (known) code in the body: classify by HTTP status alone.
        if status >= 500:
            cls, fallback_code = ClientUnavailableError, CODE_INTERNAL
        elif status == 429:
            cls, fallback_code = ClientRateLimitedError, CODE_RATE_LIMITED
        elif status == 404:
            cls, fallback_code = ClientNotFoundError, CODE_NOT_FOUND
        else:
            cls, fallback_code = ClientInvalidRequestError, CODE_INVALID_REQUEST
        if code is None:
            code = fallback_code
    return cls(code, message, status=status, detail=detail,
               retry_after_s=retry_after_s)


class ServingClient:
    """HTTP client for one serving endpoint.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``"http://127.0.0.1:8000"``.
    timeout:
        Socket timeout per HTTP attempt, seconds.
    retries:
        Automatic re-attempts for retryable failures (429/5xx/transport).
        ``0`` disables retrying entirely.
    backoff_s, backoff_max_s:
        Jittered exponential backoff between attempts: attempt ``k`` sleeps
        ``min(backoff_s * 2**k, backoff_max_s)`` scaled by a uniform random
        factor in ``[0.5, 1.5)`` — unless the server's ``Retry-After`` is
        larger, which wins.
    tenant:
        Value of the ``X-Tenant`` header on every request (rate-limiting
        identity); ``None`` sends no header.
    sleep, rng:
        Injectable backoff primitives (tests pass fakes).
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 retries: int = 2, backoff_s: float = 0.1,
                 backoff_max_s: float = 2.0,
                 tenant: Optional[str] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.backoff_max_s = float(backoff_max_s)
        self.tenant = tenant
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()

    # -- transport -----------------------------------------------------------

    def _attempt(self, method: str, path: str,
                 payload: Optional[dict],
                 extra_headers: Optional[Dict[str, str]] = None) -> dict:
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.tenant is not None:
            headers["X-Tenant"] = str(self.tenant)
        if extra_headers:
            headers.update(extra_headers)
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method,
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read()
                content_type = response.headers.get("Content-Type", "")
        except urllib.error.HTTPError as error:
            raise _error_from_response(
                error.code, error.read(), error.headers.get("Retry-After")
            ) from None
        except (urllib.error.URLError, OSError, TimeoutError) as error:
            raise TransportError(
                f"{method} {path} against {self.base_url} failed: {error}"
            ) from error
        if content_type.startswith("application/json"):
            return json.loads(body.decode("utf-8"))
        return {"text": body.decode("utf-8")}

    def request(self, method: str, path: str,
                payload: Optional[dict] = None,
                headers: Optional[Dict[str, str]] = None) -> dict:
        """One API call with the retry policy applied."""
        last: Optional[ServingClientError] = None
        for attempt in range(self.retries + 1):
            try:
                return self._attempt(method, path, payload, headers)
            except TransportError as error:
                last = error
            except ServingAPIError as error:
                if not error.retryable:
                    raise
                last = error
            if attempt >= self.retries:
                break
            backoff = min(self.backoff_s * (2 ** attempt), self.backoff_max_s)
            backoff *= 0.5 + self._rng.random()
            retry_after = getattr(last, "retry_after_s", None)
            if retry_after is not None:
                backoff = max(backoff, float(retry_after))
            self._sleep(backoff)
        assert last is not None
        raise last

    # -- API surface ---------------------------------------------------------

    @staticmethod
    def _predict_path(model: str, version) -> str:
        if version is None:
            return f"/v1/models/{model}/predict"
        if isinstance(version, int):
            version = f"v{version}"
        return f"/v1/models/{model}/versions/{version}/predict"

    def predict(self, image, seed: Optional[int] = None, *,
                model: str,
                version: Union[int, str, None] = None,
                trace_id: Optional[str] = None) -> dict:
        """One prediction against ``model``; returns the full response body.

        ``version`` pins a registry version (``3``, ``"v3"``); ``None``
        uses the latest resident one.  ``image`` is any nested sequence of
        pixel intensities.
        ``trace_id`` sends the ``X-Repro-Trace-Id`` header, activating
        server-side distributed tracing for this request; the response body
        then carries the same id back as ``"trace_id"``.
        """
        if hasattr(image, "tolist"):
            image = image.tolist()
        payload: Dict[str, object] = {"image": image}
        if seed is not None:
            payload["seed"] = int(seed)
        headers = {TRACE_HEADER: str(trace_id)} if trace_id is not None else None
        return self.request("POST", self._predict_path(model, version),
                            payload, headers)

    def models(self) -> List[dict]:
        """The server's model catalogue (``GET /v1/models``)."""
        return self.request("GET", "/v1/models")["models"]

    def health(self, model: Optional[str] = None) -> dict:
        """Server health (``/v1/healthz``) or one model's health."""
        if model is None:
            return self.request("GET", "/v1/healthz")
        return self.request("GET", f"/v1/models/{model}/healthz")

    def metrics_json(self) -> dict:
        """All models' metrics snapshots (``GET /v1/metrics.json``)."""
        return self.request("GET", "/v1/metrics.json")

    def metrics_text(self) -> str:
        """The Prometheus exposition document (``GET /v1/metrics``)."""
        return self.request("GET", "/v1/metrics")["text"]

    def metrics_prometheus(self) -> Dict[str, Dict]:
        """Fetched *and parsed* Prometheus metrics, keyed by family name.

        Fetches ``GET /v1/metrics`` and validates it through
        :func:`repro.observability.prometheus.parse_prometheus_text` — a
        malformed document (bad sample line, duplicate metric family)
        raises ``ValueError`` instead of returning garbage.
        """
        return parse_prometheus_text(self.metrics_text())

    def wait_until_healthy(self, timeout: float = 30.0,
                           interval: float = 0.2) -> dict:
        """Poll ``GET /v1/healthz`` until it answers or ``timeout`` elapses."""
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self._attempt("GET", "/v1/healthz", None)
            except ServingClientError as error:
                last = error
                self._sleep(interval)
        raise TimeoutError(
            f"server at {self.base_url} did not become healthy within "
            f"{timeout:.0f} s (last error: {last})"
        )

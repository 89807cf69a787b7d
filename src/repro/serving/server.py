"""Stdlib HTTP/JSON front end: the versioned ``/v1`` multi-model API.

Endpoints
---------
``POST /v1/models/<name>/predict``
    Predict against the latest resident version of ``<name>``.  Body
    ``{"image": [...], "seed": 123}`` (``seed`` optional; the image is a
    flat or nested list of ``n_input`` pixel intensities).  Responds with
    the prediction, per-class scores, the resolved seed, the spike count,
    and the serving model/version.  Optional ``X-Tenant`` header selects
    the rate-limiting tenant (default ``"default"``).
``POST /v1/models/<name>/versions/<vN>/predict``
    Same, pinned to registry version ``<vN>`` (``v3`` / ``v0003`` / ``3``).
``GET /v1/models``
    Catalogue: resident models plus the registry listing.
``GET /v1/models/<name>/healthz``
    Per-model health: pool shape, shard PIDs, breaker state, counters.
``GET /v1/healthz``
    Whole-server liveness: status plus the resident model keys.
``GET /v1/metrics`` / ``GET /v1/metrics.json``
    All resident models' metrics — Prometheus text exposition with a
    ``model`` label per sample, or the raw snapshots as JSON — plus the
    router-wide ``evictions_total``.

Every error, on every route, is one structured envelope::

    {"error": {"code": "rate_limited", "message": "...", "detail": {...}}}

with stable codes from :mod:`repro.serving.errors`.  Backpressure and
rate-limit rejections are ``429`` with a ``Retry-After`` header; an open
circuit breaker is ``503`` with ``Retry-After``.  Any other path answers
``404`` ``not_found``.

Implementation notes: ``ThreadingHTTPServer`` gives one handler thread per
connection — handlers block on the request future while the pools' workers
(threads or shard processes) do the actual batched inference, so concurrent
connections are what fills micro-batches.  Everything is stdlib
(``http.server`` + ``json``); there is deliberately no framework dependency.
"""

from __future__ import annotations

import json
import re
import threading
from concurrent.futures import CancelledError, TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

import numpy as np

from repro.observability.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.observability.structlog import get_struct_logger
from repro.observability.tracing import (
    TRACE_HEADER,
    TraceContext,
    new_trace_id,
    span,
    trace_id_for_request,
    trace_scope,
    tracing_forced,
)
from repro.serving.errors import (
    ApiError,
    CODE_INTERNAL,
    CODE_INVALID_REQUEST,
    CODE_NOT_FOUND,
    CODE_PAYLOAD_TOO_LARGE,
    CODE_SHUTTING_DOWN,
    CODE_TIMEOUT,
)
from repro.serving.router import DEFAULT_TENANT, ModelRouter

_log = get_struct_logger("serving.server")

#: Largest accepted request body (a 64x64 float image in JSON is ~100 KiB).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Default per-request wall-clock budget awaiting a worker result.
DEFAULT_REQUEST_TIMEOUT_S = 30.0

#: Header naming the rate-limiting tenant of a request.
TENANT_HEADER = "X-Tenant"

_MODEL_PREDICT = re.compile(r"^/v1/models/([^/]+)/predict$")
_VERSION_PREDICT = re.compile(r"^/v1/models/([^/]+)/versions/([^/]+)/predict$")
_MODEL_HEALTHZ = re.compile(r"^/v1/models/([^/]+)/healthz$")


class _ServingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the router/server references."""

    daemon_threads = True
    allow_reuse_address = True
    # The socketserver default listen backlog (5) drops/resets connections
    # when a burst of clients connects at once — exactly the load-generator
    # and CI-hammer shape.  A deeper accept queue absorbs the burst.
    request_queue_size = 128

    router: ModelRouter
    request_timeout_s: float
    quiet: bool


class _Handler(BaseHTTPRequestHandler):
    server: _ServingHTTPServer

    #: Trace context of the in-flight request (set per request by the GET/
    #: POST entry points; ``None`` for untraced requests).
    _trace: Optional[TraceContext] = None

    # -- plumbing ------------------------------------------------------------

    def _read_trace_header(self) -> bool:
        """Parse :data:`TRACE_HEADER` into ``self._trace``.

        Returns ``False`` (after sending the 400) when the header is
        present but malformed.
        """
        self._trace = None
        try:
            self._trace = TraceContext.from_headers(self.headers)
        except ValueError as error:
            self._send_api_error(ApiError(CODE_INVALID_REQUEST, str(error)))
            return False
        return True

    def _trace_headers(self) -> Dict[str, str]:
        """Response header echoing the request's trace id (empty untraced)."""
        if self._trace is None:
            return {}
        return {TRACE_HEADER: self._trace.trace_id}

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - CLI verbose mode
            super().log_message(format, *args)

    def _send(self, status: int, data: bytes, content_type: str,
              headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for key, value in {**self._trace_headers(), **(headers or {})}.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, status: int, payload: object,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"),
                   "application/json", headers)

    def _send_api_error(self, error: ApiError) -> None:
        retry_after = error.retry_after_header
        _log.warning("request_rejected", path=self.path, status=error.status,
                     code=error.code, error=error.message)
        self._send_json(error.status, error.envelope(),
                        None if retry_after is None else {"Retry-After": retry_after})

    # -- GET -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        if not self._read_trace_header():
            return
        try:
            self._route_get()
        except ApiError as error:
            self._send_api_error(error)
        except Exception as error:  # noqa: BLE001 - last-resort envelope
            self._send_api_error(ApiError(
                CODE_INTERNAL, f"{type(error).__name__}: {error}"
            ))

    def _route_get(self) -> None:
        router = self.server.router
        path = self.path
        if path == "/v1/models":
            self._send_json(200, {"models": router.list_models()})
            return
        match = _MODEL_HEALTHZ.match(path)
        if match:
            self._send_json(200, router.health(match.group(1)))
            return
        if path == "/v1/healthz":
            entries = router.entries()
            self._send_json(200, {
                "status": "ok" if any(entry.pool.running for entry in entries)
                else "stopped",
                "models": [entry.key for entry in entries],
                "default_model": router.default_model,
            })
            return
        if path == "/v1/metrics":
            self._send(200, render_prometheus(router.metrics_registries()).encode("utf-8"),
                       PROMETHEUS_CONTENT_TYPE)
            return
        if path == "/v1/metrics.json":
            self._send_json(200, {"models": router.metrics_snapshots(),
                                  **router.metrics.snapshot()})
            return
        raise ApiError(CODE_NOT_FOUND, f"unknown path {self.path!r}")

    # -- POST ----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        if not self._read_trace_header():
            return
        try:
            self._route_post()
        except ApiError as error:
            self._send_api_error(error)
        except Exception as error:  # noqa: BLE001 - last-resort envelope
            self._send_api_error(ApiError(
                CODE_INTERNAL, f"{type(error).__name__}: {error}"
            ))

    def _route_post(self) -> None:
        path = self.path
        match = _MODEL_PREDICT.match(path)
        if match:
            self._handle_predict(match.group(1), None)
            return
        match = _VERSION_PREDICT.match(path)
        if match:
            self._handle_predict(match.group(1), match.group(2))
            return
        raise ApiError(CODE_NOT_FOUND, f"unknown path {self.path!r}")

    def _handle_predict(self, name: str, version: Optional[str]) -> None:
        image, seed = self._read_predict_body()
        router = self.server.router
        entry = router.resolve(name, version)
        tenant = self.headers.get(TENANT_HEADER, DEFAULT_TENANT)
        if self._trace is None and tracing_forced():
            # REPRO_TRACE: trace every request; deterministic id when the
            # request pins a seed, random otherwise.
            self._trace = TraceContext(
                trace_id=trace_id_for_request(seed) if seed is not None
                else new_trace_id()
            )
        sink = getattr(entry.pool, "ledger", None)
        try:
            with trace_scope(self._trace, sink=sink):
                with span("http_request", route=self.path, tenant=tenant):
                    result = router.predict_entry(
                        entry, image, seed=seed, tenant=tenant,
                        timeout=self.server.request_timeout_s,
                    )
        except ValueError as error:
            raise ApiError(CODE_INVALID_REQUEST, str(error)) from None
        except FutureTimeoutError:
            raise ApiError(
                CODE_TIMEOUT, "request timed out awaiting a worker"
            ) from None
        except CancelledError:
            raise ApiError(
                CODE_SHUTTING_DOWN, "request was cancelled at shutdown"
            ) from None
        body = result.to_dict()
        if self._trace is not None:
            # Only traced responses grow the field — untraced bodies stay
            # bit-identical to the pre-tracing API.
            body["trace_id"] = self._trace.trace_id
        body["model"] = entry.name
        body["version"] = (f"v{entry.version:04d}"
                           if entry.version is not None else None)
        self._send_json(200, body)

    def _read_predict_body(self) -> Tuple[np.ndarray, Optional[int]]:
        """Read and validate the predict payload; raises ``ApiError``."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise ApiError(CODE_INVALID_REQUEST,
                           "invalid Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise ApiError(
                CODE_PAYLOAD_TOO_LARGE,
                f"request body must be 1..{MAX_BODY_BYTES} bytes",
                detail={"max_bytes": MAX_BODY_BYTES, "got_bytes": length},
            )
        if length <= 0:
            raise ApiError(CODE_INVALID_REQUEST,
                           f"request body must be 1..{MAX_BODY_BYTES} bytes")
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ApiError(CODE_INVALID_REQUEST,
                           f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ApiError(CODE_INVALID_REQUEST,
                           "request body must be a JSON object")
        if "image" not in payload:
            raise ApiError(CODE_INVALID_REQUEST,
                           "request is missing the 'image' field")
        try:
            image = np.asarray(payload["image"], dtype=float)
        except (TypeError, ValueError):
            raise ApiError(CODE_INVALID_REQUEST,
                           "'image' must be a (nested) list of numbers") from None
        if not np.all(np.isfinite(image)):
            raise ApiError(CODE_INVALID_REQUEST,
                           "'image' contains non-finite values")
        if np.any(image < 0):
            raise ApiError(CODE_INVALID_REQUEST,
                           "'image' intensities must be non-negative")
        seed = payload.get("seed")
        if seed is not None:
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ApiError(CODE_INVALID_REQUEST,
                               "'seed' must be an integer")
        return image, seed


class ModelServer:
    """Lifecycle wrapper: bind, serve (optionally in the background), stop.

    Parameters
    ----------
    source:
        Either a :class:`~repro.serving.router.ModelRouter` (multi-model
        serving) or a single pool (``ReplicaPool``/``ShardProcessPool``),
        which is wrapped in a one-model router pinned under its model name.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address`).
    request_timeout_s:
        Per-request budget awaiting a worker result before ``504``.
    quiet:
        Suppress the per-request access log (default; the CLI turns it on
        with ``-v``).
    """

    def __init__(self, source, host: str = "127.0.0.1",
                 port: int = 0, *,
                 request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
                 quiet: bool = True) -> None:
        if isinstance(source, ModelRouter):
            self.router = source
            self.pool = None
        else:
            self.router = ModelRouter()
            self.router.add_pool(source.model_name, source)
            self.pool = source
        self._httpd = _ServingHTTPServer((host, port), _Handler)
        self._httpd.router = self.router
        self._httpd.request_timeout_s = float(request_timeout_s)
        self._httpd.quiet = bool(quiet)
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves ephemeral ports."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ModelServer":
        """Start the pools and serve requests from a background thread."""
        self.router.start()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve-http", daemon=True,
            )
            self._thread.start()
        host, port = self.address
        _log.info("server_started", host=host, port=port,
                  models=[entry.key for entry in self.router.entries()])
        return self

    def serve_forever(self) -> None:
        """Start the pools and serve on the calling thread (CLI mode)."""
        self.router.start()
        self._serving = True
        try:
            self._httpd.serve_forever()
        finally:
            self._serving = False

    def stop(self) -> None:
        """Stop accepting connections, then drain and stop the pools.

        ``shutdown()`` blocks until the serve loop acknowledges, so it is
        only issued when a loop is (or was) actually running — calling
        :meth:`stop` on a server whose loop never started must not hang.
        """
        if self._thread is not None or self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(10.0)
            self._thread = None
        self.router.stop()

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

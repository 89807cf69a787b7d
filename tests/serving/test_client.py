"""ServingClient unit tests against a scripted stub HTTP server.

The stub answers each request from a queue of canned ``(status, headers,
body)`` responses and records what it received, so retry behaviour, header
propagation, and error typing are all asserted without a real model server.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.client import (
    ClientInvalidRequestError,
    ClientNotFoundError,
    ClientRateLimitedError,
    ClientTimeoutError,
    ClientUnavailableError,
    ServingAPIError,
    ServingClient,
    TransportError,
)


class StubServer:
    """Scripted HTTP server: pops one canned response per request."""

    def __init__(self):
        self.responses = []   # [(status, headers_dict, body_obj)]
        self.requests = []    # [(method, path, headers_dict, body_obj|None)]
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _serve(self):
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length) if length else b""
                body = json.loads(raw) if raw else None
                with stub._lock:
                    stub.requests.append((self.command, self.path,
                                          dict(self.headers), body))
                    if not stub.responses:
                        status, headers, reply = 500, {}, {"error": "unscripted"}
                    else:
                        status, headers, reply = stub.responses.pop(0)
                if reply is ...:  # sentinel: hang up without answering
                    self.connection.close()
                    return
                payload = (reply if isinstance(reply, bytes)
                           else json.dumps(reply).encode("utf-8"))
                self.send_response(status)
                content_type = ("text/plain" if isinstance(reply, bytes)
                                else "application/json")
                self.send_header("Content-Type",
                                 headers.get("Content-Type", content_type))
                self.send_header("Content-Length", str(len(payload)))
                for name, value in headers.items():
                    if name != "Content-Type":
                        self.send_header(name, value)
                self.end_headers()
                self.wfile.write(payload)

            do_GET = do_POST = _serve

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def script(self, *responses):
        self.responses.extend(responses)

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture()
def stub():
    server = StubServer()
    yield server
    server.close()


def ok_body(prediction=3):
    return {"prediction": prediction, "seed": 0, "spike_count": 1.0,
            "scores": [0.0] * 10}


def envelope(code, message="boom", detail=None):
    return {"error": {"code": code, "message": message, "detail": detail}}


IMAGE = np.zeros(4)


class TestRequestShapes:
    def test_predict_requires_a_model(self, stub):
        with pytest.raises(TypeError, match="model"):
            ServingClient(stub.url).predict(IMAGE)
        with pytest.raises(TypeError, match="model"):
            ServingClient(stub.url).predict(IMAGE, seed=7)
        assert stub.requests == []

    def test_model_route_posts_image_and_seed(self, stub):
        stub.script((200, {}, ok_body()))
        body = ServingClient(stub.url).predict(IMAGE, seed=7, model="digits")
        assert body["prediction"] == 3
        method, path, _, payload = stub.requests[0]
        assert (method, path) == ("POST", "/v1/models/digits/predict")
        assert payload == {"image": [0.0] * 4, "seed": 7}

    def test_model_and_version_route(self, stub):
        stub.script((200, {}, ok_body()))
        ServingClient(stub.url).predict(IMAGE, model="digits", version=3)
        assert stub.requests[0][1] == "/v1/models/digits/versions/v3/predict"

    def test_string_version_passes_through(self, stub):
        stub.script((200, {}, ok_body()))
        ServingClient(stub.url).predict(IMAGE, model="digits", version="v0002")
        assert stub.requests[0][1] == "/v1/models/digits/versions/v0002/predict"

    def test_tenant_header_sent(self, stub):
        stub.script((200, {}, ok_body()))
        ServingClient(stub.url, tenant="acme").predict(IMAGE, model="m")
        assert stub.requests[0][2].get("X-Tenant") == "acme"

    def test_helper_endpoints(self, stub):
        stub.script(
            (200, {}, {"models": [{"name": "m"}]}),
            (200, {}, {"status": "ok"}),
            (200, {}, {"status": "ok"}),
            (200, {}, {"models": {}}),
            (200, {}, b"# HELP x y\n"),
        )
        client = ServingClient(stub.url)
        assert client.models() == [{"name": "m"}]
        assert client.health()["status"] == "ok"
        assert client.health("m")["status"] == "ok"
        client.metrics_json()
        assert client.metrics_text().startswith("# HELP")
        paths = [request[1] for request in stub.requests]
        assert paths == ["/v1/models", "/v1/healthz",
                         "/v1/models/m/healthz", "/v1/metrics.json",
                         "/v1/metrics"]

    def test_predict_trace_id_sends_the_trace_header(self, stub):
        stub.script((200, {}, ok_body()))
        ServingClient(stub.url).predict(IMAGE, model="m", trace_id="trace-42")
        headers = stub.requests[0][2]
        assert headers.get("X-Repro-Trace-Id") == "trace-42"

    def test_predict_without_trace_id_sends_no_trace_header(self, stub):
        stub.script((200, {}, ok_body()))
        ServingClient(stub.url).predict(IMAGE, model="m")
        assert "X-Repro-Trace-Id" not in stub.requests[0][2]

    def test_trace_header_survives_retries(self, stub):
        stub.script(
            (503, {}, envelope("unavailable")),
            (200, {}, ok_body()),
        )
        client = ServingClient(stub.url, retries=2, backoff_s=0.01)
        client.predict(IMAGE, model="m", trace_id="trace-42")
        assert len(stub.requests) == 2
        assert all(request[2].get("X-Repro-Trace-Id") == "trace-42"
                   for request in stub.requests)

    def test_metrics_prometheus_parses_families(self, stub):
        stub.script((200, {},
                     b"# TYPE repro_requests_total counter\n"
                     b'repro_requests_total{model="m"} 5\n'))
        families = ServingClient(stub.url).metrics_prometheus()
        assert families["repro_requests_total"][(("model", "m"),)] == 5.0

    def test_metrics_prometheus_rejects_corrupt_exposition(self, stub):
        stub.script((200, {}, b"# TYPE a counter\n# TYPE a counter\n"))
        with pytest.raises(ValueError, match="duplicate metric family"):
            ServingClient(stub.url).metrics_prometheus()


class TestErrorTyping:
    @pytest.mark.parametrize("status,code,expected", [
        (400, "invalid_request", ClientInvalidRequestError),
        (413, "payload_too_large", ClientInvalidRequestError),
        (404, "not_found", ClientNotFoundError),
        (429, "rate_limited", ClientRateLimitedError),
        (429, "queue_full", ClientRateLimitedError),
        (503, "circuit_open", ClientUnavailableError),
        (503, "shutting_down", ClientUnavailableError),
        (503, "upstream_failure", ClientUnavailableError),
        (500, "internal", ClientUnavailableError),
        (504, "timeout", ClientTimeoutError),
    ])
    def test_envelope_maps_to_typed_error(self, stub, status, code, expected):
        stub.script((status, {}, envelope(code)))
        client = ServingClient(stub.url, retries=0)
        with pytest.raises(expected) as excinfo:
            client.predict(IMAGE, model="m")
        assert excinfo.value.code == code
        assert excinfo.value.status == status
        assert isinstance(excinfo.value, ServingAPIError)

    def test_pre_1_7_string_error_still_parses(self, stub):
        stub.script((400, {}, {"error": "image must be a list"}))
        with pytest.raises(ClientInvalidRequestError) as excinfo:
            ServingClient(stub.url, retries=0).predict(IMAGE, model="m")
        assert "image must be a list" in excinfo.value.message

    def test_non_json_error_body_falls_back_by_status(self, stub):
        stub.script((503, {}, b"<html>gateway sad</html>"))
        with pytest.raises(ClientUnavailableError):
            ServingClient(stub.url, retries=0).predict(IMAGE, model="m")

    def test_detail_and_retry_after_surface(self, stub):
        stub.script((429, {"Retry-After": "7"},
                     envelope("rate_limited", detail={"tenant": "t"})))
        with pytest.raises(ClientRateLimitedError) as excinfo:
            ServingClient(stub.url, retries=0).predict(IMAGE, model="m")
        assert excinfo.value.retry_after_s == 7.0
        assert excinfo.value.detail == {"tenant": "t"}


class TestRetryPolicy:
    def make_client(self, stub, **kwargs):
        sleeps = []
        kwargs.setdefault("retries", 2)
        kwargs.setdefault("backoff_s", 0.01)
        client = ServingClient(stub.url, sleep=sleeps.append, **kwargs)
        return client, sleeps

    def test_retryable_errors_are_retried_until_success(self, stub):
        stub.script(
            (503, {}, envelope("upstream_failure")),
            (429, {}, envelope("rate_limited")),
            (200, {}, ok_body(5)),
        )
        client, sleeps = self.make_client(stub)
        assert client.predict(IMAGE, model="m")["prediction"] == 5
        assert len(stub.requests) == 3
        assert len(sleeps) == 2

    def test_retry_budget_is_bounded(self, stub):
        stub.script(*[(503, {}, envelope("upstream_failure"))] * 5)
        client, _ = self.make_client(stub, retries=2)
        with pytest.raises(ClientUnavailableError):
            client.predict(IMAGE, model="m")
        assert len(stub.requests) == 3  # 1 + 2 retries

    def test_non_retryable_errors_fail_immediately(self, stub):
        stub.script((400, {}, envelope("invalid_request")))
        client, sleeps = self.make_client(stub)
        with pytest.raises(ClientInvalidRequestError):
            client.predict(IMAGE, model="m")
        assert len(stub.requests) == 1
        assert sleeps == []

    def test_server_retry_after_wins_when_larger(self, stub):
        stub.script(
            (429, {"Retry-After": "3"}, envelope("rate_limited")),
            (200, {}, ok_body()),
        )
        client, sleeps = self.make_client(stub, backoff_s=0.01)
        client.predict(IMAGE, model="m")
        assert sleeps == [3.0]

    def test_backoff_grows_and_is_capped(self, stub):
        stub.script(*([(503, {}, envelope("upstream_failure"))] * 4
                      + [(200, {}, ok_body())]))
        client, sleeps = self.make_client(stub, retries=4, backoff_s=0.1,
                                          backoff_max_s=0.2)
        client.predict(IMAGE, model="m")
        assert len(sleeps) == 4
        # jittered exponential: base 0.1, 0.2, then capped at 0.2
        for slept, base in zip(sleeps, [0.1, 0.2, 0.2, 0.2]):
            assert 0.5 * base <= slept < 1.5 * base

    def test_transport_errors_are_retried(self, stub):
        stub.script(
            (200, {}, ...),  # connection dropped mid-request
            (200, {}, ok_body(1)),
        )
        client, sleeps = self.make_client(stub)
        assert client.predict(IMAGE, model="m")["prediction"] == 1
        assert len(sleeps) == 1

    def test_connection_refused_is_a_transport_error(self):
        # grab a port that nothing listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServingClient(f"http://127.0.0.1:{port}", retries=1,
                               backoff_s=0.0, sleep=lambda s: None)
        with pytest.raises(TransportError):
            client.predict(IMAGE, model="m")


class TestWaitUntilHealthy:
    def test_polls_until_ok(self, stub):
        stub.script(
            (503, {}, envelope("shutting_down")),
            (200, {}, {"status": "ok"}),
        )
        client = ServingClient(stub.url, retries=0)
        health = client.wait_until_healthy(timeout=10.0, interval=0.01)
        assert health["status"] == "ok"
        assert [request[1] for request in stub.requests] == \
            ["/v1/healthz", "/v1/healthz"]

    def test_times_out(self, stub):
        stub.script(*[(503, {}, envelope("shutting_down"))] * 50)
        client = ServingClient(stub.url, retries=0)
        with pytest.raises(TimeoutError):
            client.wait_until_healthy(timeout=0.2, interval=0.01)

"""HTTP server tests: the end-to-end hammer plus protocol error paths.

A server built from one pool serves it under ``pool.model_name`` on the
``/v1`` routes; every request here goes through them.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.client import ServingClient
from repro.observability import parse_prometheus_text
from repro.observability.prometheus import PROMETHEUS_CONTENT_TYPE
from repro.serving import (
    ModelServer,
    ReplicaPool,
    SpikeCountDriftDetector,
    http_sender,
    offline_predictions,
    run_load,
)


@pytest.fixture
def server(artifact):
    pool = ReplicaPool.from_artifact(
        artifact, workers=2, max_batch=8, max_wait_ms=5.0, max_queue=256,
        drift_detector=SpikeCountDriftDetector(window=8),
    )
    with ModelServer(pool, port=0) as server:
        yield server


def _predict_url(server) -> str:
    return f"{server.url}/v1/models/{server.pool.model_name}/predict"


def _sender(server):
    return http_sender(server.url, model=server.pool.model_name)


def _post(server, payload: object, raw: bytes = None) -> tuple:
    body = raw if raw is not None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        _predict_url(server), data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


@pytest.mark.integration
class TestEndToEnd:
    def test_sixteen_thread_hammer_matches_offline(self, server, artifact,
                                                   request_images,
                                                   request_seeds):
        """Boot on an ephemeral port, hammer from 16 threads, and require
        every response to be valid and bit-identical to the offline path."""
        images = request_images * 4  # 48 requests
        seeds = [seed + 1000 * repeat
                 for repeat in range(4) for seed in request_seeds]
        reference = offline_predictions(artifact.build_model(), images, seeds)
        report = run_load(_sender(server), images, seeds, concurrency=16)
        assert report.errors == []
        assert report.ok == len(images)
        np.testing.assert_array_equal(report.predictions, reference)

    def test_healthz_reports_deployment_shape(self, server):
        health = ServingClient(server.url).health(server.pool.model_name)
        assert health["status"] == "ok"
        assert health["model"] == "spikedyn"
        assert health["workers"] == 2
        assert health["max_batch"] == 8
        assert health["n_input"] == 196

    def test_server_healthz_names_the_pool_as_default_model(self, server):
        health = ServingClient(server.url).health()
        assert health == {"status": "ok", "models": [server.pool.model_name],
                          "default_model": server.pool.model_name}

    def test_metrics_after_load(self, server, request_images, request_seeds):
        run_load(_sender(server), request_images, request_seeds, concurrency=8)
        snapshot = ServingClient(server.url).metrics_json()
        metrics = snapshot["models"][server.pool.model_name]
        n = len(request_images)
        assert metrics["requests_total"] >= n
        assert metrics["responses_total"] >= n
        assert metrics["errors_total"] == 0
        histogram = metrics["batch_size_histogram"]
        assert sum(int(size) * count
                   for size, count in histogram.items()) >= n
        latency = metrics["latency"]
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            assert latency[key] >= 0.0
        assert latency["p50_ms"] <= latency["p99_ms"]
        assert metrics["drift"]["observed"] >= n

    def test_prometheus_metrics_endpoint(self, server, request_images,
                                         request_seeds):
        """GET /v1/metrics serves parseable Prometheus text exposition that
        agrees with the JSON snapshot on /v1/metrics.json."""
        run_load(_sender(server), request_images, request_seeds, concurrency=8)
        request = urllib.request.Request(server.url + "/v1/metrics")
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            text = response.read().decode("utf-8")
        series = parse_prometheus_text(text)
        model = (("model", server.pool.model_name),)
        n = len(request_images)
        assert series["repro_serving_requests_total"][model] >= n
        assert series["repro_serving_responses_total"][model] >= n
        buckets = series["repro_serving_batch_size_bucket"]
        inf_key = (("le", "+Inf"),) + model
        assert buckets[inf_key] == series["repro_serving_batch_size_count"][model]
        info = series["repro_serving_info"]
        labels = dict(next(iter(info)))
        assert labels["model"] == server.pool.model_name
        assert labels["model_class"] == "spikedyn"
        assert labels["backend"] in ("dense", "sparse")
        # Prometheus and JSON views come from the same snapshot machinery.
        json_metrics = ServingClient(server.url).metrics_json()
        assert series["repro_serving_latency_window"][model] == \
            json_metrics["models"][server.pool.model_name]["latency"]["window"]

    def test_metrics_text_matches_client_helper(self, server):
        text = ServingClient(server.url).metrics_text()
        assert "# TYPE repro_serving_requests_total counter" in text
        parse_prometheus_text(text)  # must not raise

    def test_predict_response_shape(self, server, request_images):
        status, body = _post(server, {
            "image": request_images[0].ravel().tolist(), "seed": 3,
        })
        assert status == 200
        assert body["seed"] == 3
        assert body["model"] == "spikedyn"
        assert isinstance(body["prediction"], int)
        assert len(body["scores"]) == 10
        assert body["spike_count"] >= 0.0

    def test_nested_image_lists_are_accepted(self, server, request_images):
        nested = request_images[0].reshape(14, 14).tolist()
        status, body = _post(server, {"image": nested, "seed": 3})
        assert status == 200
        flat_status, flat_body = _post(server, {
            "image": request_images[0].ravel().tolist(), "seed": 3,
        })
        assert flat_status == 200
        assert body["prediction"] == flat_body["prediction"]


@pytest.mark.integration
class TestProtocolErrors:
    def test_unknown_paths_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
        assert excinfo.value.code == 404
        request = urllib.request.Request(
            server.url + "/other", data=b"{}", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404

    def test_malformed_json_400(self, server):
        status, body = _post(server, None, raw=b"{not json")
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert "JSON" in body["error"]["message"]

    def test_missing_image_field_400(self, server):
        status, body = _post(server, {"seed": 1})
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert "image" in body["error"]["message"]

    def test_wrong_image_size_400(self, server):
        status, body = _post(server, {"image": [0.1, 0.2, 0.3]})
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert "pixels" in body["error"]["message"]

    def test_non_numeric_image_400(self, server):
        status, body = _post(server, {"image": ["a"] * 196})
        assert status == 400

    def test_non_finite_image_400(self, server):
        status, body = _post(server, {
            "image": [float("nan")] + [0.0] * 195,
        })
        assert status == 400
        assert "finite" in body["error"]["message"]

    def test_negative_image_400(self, server):
        status, body = _post(server, {
            "image": [-0.1] + [0.0] * 195,
        })
        assert status == 400
        assert "non-negative" in body["error"]["message"]

    def test_non_integer_seed_400(self, server, request_images):
        status, body = _post(server, {
            "image": request_images[0].ravel().tolist(), "seed": "abc",
        })
        assert status == 400
        assert "seed" in body["error"]["message"]

    def test_empty_body_400(self, server):
        request = urllib.request.Request(
            _predict_url(server), data=b"",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_stopped_pool_returns_retryable_503(self, server, request_images):
        # Only this model's pool is gone, not the server: the envelope
        # says "retry", not "we are shutting down".
        server.pool.stop()
        status, body = _post(server, {
            "image": request_images[0].ravel().tolist(),
        })
        assert status == 503
        assert body["error"]["code"] == "upstream_failure"

    def test_shutdown_returns_503(self, server, request_images):
        server.router.stop()
        status, body = _post(server, {
            "image": request_images[0].ravel().tolist(),
        })
        assert status == 503
        assert body["error"]["code"] == "shutting_down"

"""End-to-end tests of the versioned ``/v1`` HTTP API.

One module-scoped server fronts two genuinely different models — the shared
``spikedyn`` artifact pinned at boot, plus a ``digits`` model published to an
:class:`ArtifactRegistry` in two versions with permuted label assignments, so
routing mistakes change predictions instead of passing silently.  Rate
limiting and shard-crash recovery each get their own small server because
they need conflicting pool/limit configurations.
"""

from __future__ import annotations

import json
import os
import signal
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.client import (
    ClientInvalidRequestError,
    ClientNotFoundError,
    ClientRateLimitedError,
    ServingClient,
)
from repro.models.base import N_CLASSES
from repro.observability.prometheus import parse_prometheus_text
from repro.serving import load_artifact
from repro.serving.artifacts import ArtifactRegistry
from repro.serving.inference import offline_predictions
from repro.serving.pool import ReplicaPool
from repro.serving.router import ModelRouter
from repro.serving.server import ModelServer
from repro.serving.shards import ShardProcessPool


def _shifted_model(artifact, shift: int):
    """A copy of the artifact's model with class labels rotated by ``shift``.

    Rotating the neuron->class assignments permutes every prediction by the
    same rotation, so each version answers differently from the others and
    from the original — ideal for proving requests reach the right model."""
    model = artifact.build_model()
    model.assignments = np.where(
        model.assignments >= 0,
        (model.assignments + shift) % N_CLASSES,
        model.assignments,
    )
    return model


@pytest.fixture(scope="module")
def registry(tmp_path_factory, artifact):
    root = tmp_path_factory.mktemp("registry")
    store = ArtifactRegistry(root)
    store.publish(_shifted_model(artifact, 1), "digits")  # v1
    store.publish(_shifted_model(artifact, 2), "digits")  # v2
    return store


@pytest.fixture(scope="module")
def api_server(artifact_dir, registry):
    def pool_factory(directory):
        return ReplicaPool.from_artifact(load_artifact(directory),
                                         workers=1, max_batch=4,
                                         max_wait_ms=2.0)

    router = ModelRouter(pool_factory, registry=registry)
    router.add_model("spikedyn", artifact_dir)
    server = ModelServer(router, port=0)
    server.start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def client(api_server):
    return ServingClient(api_server.url, retries=0)


def _raw(url: str, path: str, payload=None):
    """One raw HTTP round-trip returning ``(status, headers, body_dict)``."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url + path, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status, dict(response.headers),
                    json.loads(response.read().decode("utf-8")))
    except urllib.error.HTTPError as error:
        body = error.read().decode("utf-8")
        return error.code, dict(error.headers), json.loads(body)


class TestMultiTenantRouting:
    def test_each_model_matches_its_offline_twin(
            self, client, artifact, trained_model,
            request_images, request_seeds):
        for model_name, reference in (
                ("spikedyn", trained_model),
                ("digits", _shifted_model(artifact, 2)),  # latest = v2
        ):
            served = np.array([
                client.predict(image, seed=seed, model=model_name)["prediction"]
                for image, seed in zip(request_images, request_seeds)
            ])
            offline = offline_predictions(reference, request_images,
                                          request_seeds)
            np.testing.assert_array_equal(served, offline, err_msg=model_name)

    def test_version_route_pins_the_version(self, client, artifact,
                                            request_images, request_seeds):
        v1 = _shifted_model(artifact, 1)
        served = np.array([
            client.predict(image, seed=seed, model="digits", version=1)
            ["prediction"]
            for image, seed in zip(request_images, request_seeds)
        ])
        np.testing.assert_array_equal(
            served, offline_predictions(v1, request_images, request_seeds)
        )

    def test_v1_bodies_carry_model_and_version(self, client, request_images):
        body = client.predict(request_images[0], seed=0, model="digits",
                              version=1)
        assert body["model"] == "digits"
        assert body["version"] == "v0001"
        latest = client.predict(request_images[0], seed=0, model="digits")
        assert latest["version"] == "v0002"
        pinned = client.predict(request_images[0], seed=0, model="spikedyn")
        assert pinned["version"] is None

    def test_list_models_catalogue(self, client):
        catalogue = {record["name"]: record for record in client.models()}
        assert catalogue["spikedyn"]["pinned"] is True
        assert catalogue["digits"]["registry_versions"] == [1, 2]

    def test_per_model_healthz(self, client):
        health = client.health("digits")
        assert health["status"] == "ok"
        assert health["circuit"]["state"] == "closed"

    def test_v1_metrics_labelled_per_model(self, api_server, client):
        client.predict(np.zeros(196), seed=0, model="spikedyn")
        status, _, _ = _raw(api_server.url, "/v1/models/spikedyn/healthz")
        assert status == 200
        text = client.metrics_text()
        series = parse_prometheus_text(text)
        requests_total = series["repro_serving_requests_total"]
        labels = {dict(key)["model"] for key in requests_total}
        assert "spikedyn" in labels
        assert any(label.startswith("digits@") for label in labels)
        snapshots = client.metrics_json()["models"]
        assert "spikedyn" in snapshots


class TestRemovedAliases:
    """The pre-1.7 single-model aliases were removed in 1.12.0: each is an
    unknown path now, answered like any other."""

    @pytest.mark.parametrize("method, path", [
        ("POST", "/predict"),
        ("GET", "/healthz"),
        ("GET", "/metrics"),
        ("GET", "/metrics.json"),
    ])
    def test_removed_alias_is_a_typed_404(self, api_server, request_images,
                                          method, path):
        payload = ({"image": list(request_images[0].ravel()), "seed": 0}
                   if method == "POST" else None)
        status, headers, body = _raw(api_server.url, path, payload)
        assert status == 404
        assert body == {"error": {"code": "not_found",
                                  "message": f"unknown path {path!r}",
                                  "detail": None}}
        assert "Deprecation" not in headers
        assert "Link" not in headers


class TestErrorEnvelope:
    def test_unknown_model_404(self, api_server, client):
        status, _, body = _raw(api_server.url, "/v1/models/ghost/predict",
                               {"image": [0.0] * 196})
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert set(body["error"]) == {"code", "message", "detail"}
        with pytest.raises(ClientNotFoundError):
            client.predict(np.zeros(196), model="ghost")

    def test_unknown_version_404(self, api_server):
        status, _, body = _raw(
            api_server.url, "/v1/models/digits/versions/v9/predict",
            {"image": [0.0] * 196})
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_route_404(self, api_server):
        status, _, body = _raw(api_server.url, "/v2/anything")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_bad_json_400(self, api_server):
        request = urllib.request.Request(
            api_server.url + "/v1/models/spikedyn/predict",
            data=b"{nope", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert excinfo.value.code == 400
        assert body["error"]["code"] == "invalid_request"

    def test_wrong_pixel_count_400_typed(self, client):
        with pytest.raises(ClientInvalidRequestError) as excinfo:
            client.predict(np.zeros(3), model="spikedyn")
        assert excinfo.value.status == 400
        assert "pixels" in excinfo.value.message

    def test_oversized_body_413(self, api_server):
        """The server answers 413 from Content-Length without reading the
        body, so it may close the socket while the client is still sending —
        a raw socket tolerates that where urllib raises EPIPE."""
        import socket

        payload = json.dumps({"image": [0.0] * 196,
                              "padding": "x" * (5 * 1024 * 1024)}).encode()
        host, port = api_server.address
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/models/spikedyn/predict HTTP/1.1\r\n"
                b"Host: %b\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % (host.encode(), len(payload))
            )
            try:
                sock.sendall(payload)
            except OSError:
                pass  # server already rejected and closed its read side
            raw = b""
            while b"\r\n\r\n" not in raw:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
            head, _, rest = raw.partition(b"\r\n\r\n")
            while True:
                try:
                    chunk = sock.recv(65536)
                except OSError:
                    break
                if not chunk:
                    break
                rest += chunk
        assert b" 413 " in head.split(b"\r\n", 1)[0]
        body = json.loads(rest.decode("utf-8"))
        assert body["error"]["code"] == "payload_too_large"
        assert body["error"]["detail"]["max_bytes"] == 4 * 1024 * 1024


class TestRateLimitOverHTTP:
    @pytest.fixture()
    def limited_server(self, artifact_dir):
        def pool_factory(directory):
            return ReplicaPool.from_artifact(load_artifact(directory),
                                             workers=1, max_batch=4)

        router = ModelRouter(pool_factory, rate_rps=0.001, rate_burst=2)
        router.add_model("spikedyn", artifact_dir)
        server = ModelServer(router, port=0).start()
        yield server
        server.stop()

    def test_burst_exhaustion_is_429_with_retry_after(self, limited_server,
                                                      request_images):
        client = ServingClient(limited_server.url, retries=0)
        image = request_images[0]
        client.predict(image, seed=0, model="spikedyn")
        client.predict(image, seed=0, model="spikedyn")
        status, headers, body = _raw(
            limited_server.url, "/v1/models/spikedyn/predict",
            {"image": list(image.ravel()), "seed": 0})
        assert status == 429
        assert body["error"]["code"] == "rate_limited"
        assert int(headers["Retry-After"]) >= 1
        with pytest.raises(ClientRateLimitedError) as excinfo:
            client.predict(image, seed=0, model="spikedyn")
        assert excinfo.value.retry_after_s is not None
        # an unthrottled tenant is unaffected
        other = ServingClient(limited_server.url, retries=0, tenant="burst-2")
        assert "prediction" in other.predict(image, seed=0, model="spikedyn")

    def test_health_reports_shedding_while_limited(self, limited_server,
                                                   request_images):
        client = ServingClient(limited_server.url, retries=0,
                               tenant="health-probe")
        for _ in range(2):
            client.predict(request_images[0], seed=0, model="spikedyn")
        # rate limiting is backpressure, not an outage: health stays ok
        assert client.health("spikedyn")["status"] == "ok"


class TestShardCrashOverHTTP:
    def test_no_5xx_after_recovery(self, artifact_dir, trained_model,
                                   request_images, request_seeds):
        """Kill the only shard process, then keep serving over HTTP.

        The dispatcher respawns the worker and transparently retries the
        interrupted batch, so the client sees only 200s — before, during,
        and after the crash."""
        pool = ShardProcessPool(artifact_dir, shards=1, max_batch=4,
                                max_wait_ms=2.0)
        server = ModelServer(pool, port=0).start()
        try:
            client = ServingClient(server.url, retries=0)
            warm = client.predict(request_images[0], seed=request_seeds[0],
                                  model="spikedyn")
            assert "prediction" in warm

            pid = pool.shard_pids()[0]
            os.kill(pid, signal.SIGKILL)

            served = np.array([
                client.predict(image, seed=seed, model="spikedyn")["prediction"]
                for image, seed in zip(request_images[:6], request_seeds[:6])
            ])
            np.testing.assert_array_equal(
                served,
                offline_predictions(trained_model, request_images[:6],
                                    request_seeds[:6]),
            )
            assert pool.respawns_total == 1
            health = client.health("spikedyn")
            assert health["status"] == "ok"
            assert health["shard_pids"] == pool.shard_pids()
            assert health["shard_pids"][0] != pid
        finally:
            server.stop()

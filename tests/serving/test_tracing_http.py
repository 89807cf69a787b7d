"""End-to-end distributed-tracing tests over the /v1 HTTP API.

Two small servers: one fronting a thread :class:`ReplicaPool`, one fronting
a two-process :class:`ShardProcessPool` — both writing spans to a ledger so
`repro trace show` can rebuild the cross-process span tree.  The SIGKILL
test runs its own single-shard pool so killing the worker is deterministic.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.client import ServingClient
from repro.observability.ledger import RunLedger
from repro.observability.tracing import (
    TRACE_HEADER,
    TraceContext,
    trace_id_for_request,
    trace_scope,
)
from repro.observability.trace_view import (
    build_trace_tree,
    format_trace,
    trace_spans,
    trace_summary,
)
from repro.serving import load_artifact
from repro.serving.inference import offline_predictions
from repro.serving.pool import ReplicaPool
from repro.serving.router import ModelRouter
from repro.serving.server import ModelServer
from repro.serving.shards import ShardProcessPool


@pytest.fixture(scope="module")
def pool_ledger_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("trace-pool-ledger")


@pytest.fixture(scope="module")
def shard_ledger_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("trace-shard-ledger")


@pytest.fixture(scope="module")
def pool_server(artifact_dir, pool_ledger_dir):
    """A /v1 server over a thread pool with a span-recording ledger."""
    def pool_factory(directory):
        return ReplicaPool.from_artifact(
            load_artifact(directory), workers=1, max_batch=4, max_wait_ms=2.0,
            ledger=RunLedger(pool_ledger_dir),
        )

    router = ModelRouter(pool_factory)
    router.add_model("spikedyn", artifact_dir)
    server = ModelServer(router, port=0)
    server.start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def shard_server(artifact_dir, shard_ledger_dir):
    """A /v1 server over a two-process shard pool sharing one ledger."""
    def pool_factory(directory):
        return ShardProcessPool(directory, shards=2, max_batch=4,
                                max_wait_ms=2.0,
                                ledger=RunLedger(shard_ledger_dir))

    router = ModelRouter(pool_factory)
    router.add_model("spikedyn", artifact_dir)
    server = ModelServer(router, port=0)
    server.start()
    yield server
    server.stop()


def _wait_for_spans(ledger_dir, trace_id, minimum, timeout_s=30.0):
    """Spans arrive asynchronously from worker processes; poll briefly."""
    ledger = RunLedger(ledger_dir)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        spans = trace_spans(ledger, trace_id)
        if len(spans) >= minimum:
            return spans
        time.sleep(0.05)
    return trace_spans(ledger, trace_id)


class TestThreadPoolTracing:
    def test_traced_predict_builds_a_span_tree(self, pool_server,
                                               pool_ledger_dir,
                                               request_images):
        client = ServingClient(pool_server.url, retries=0)
        body = client.predict(request_images[0], seed=3, model="spikedyn",
                              trace_id="pool-trace-1")
        assert body["trace_id"] == "pool-trace-1"
        spans = _wait_for_spans(pool_ledger_dir, "pool-trace-1", minimum=5)
        names = {span["name"] for span in spans}
        assert {"http_request", "queue_wait", "serve_batch",
                "encode", "kernel"} <= names
        (root,) = build_trace_tree(spans)
        assert root.name == "http_request"
        child_names = {child.name for child in root.children}
        assert {"queue_wait", "serve_batch"} <= child_names
        (serve,) = [c for c in root.children if c.name == "serve_batch"]
        assert {c.name for c in serve.children} >= {"encode", "kernel"}

    def test_untraced_predict_body_is_unchanged(self, pool_server,
                                                request_images):
        client = ServingClient(pool_server.url, retries=0)
        body = client.predict(request_images[0], seed=3, model="spikedyn")
        assert "trace_id" not in body
        assert set(body) == {"prediction", "seed", "spike_count", "scores",
                             "model", "version"}

    def test_traced_and_untraced_predictions_are_bit_equal(self, pool_server,
                                                           request_images):
        client = ServingClient(pool_server.url, retries=0)
        plain = client.predict(request_images[1], seed=9, model="spikedyn")
        traced = client.predict(request_images[1], seed=9, model="spikedyn",
                                trace_id="pool-trace-eq")
        assert plain["prediction"] == traced["prediction"]
        assert plain["spike_count"] == traced["spike_count"]
        assert plain["scores"] == traced["scores"]

    def test_trace_header_is_echoed_on_every_route(self, pool_server):
        request = urllib.request.Request(
            pool_server.url + "/v1/healthz",
            headers={TRACE_HEADER: "echo-check"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers[TRACE_HEADER] == "echo-check"
            body = json.loads(response.read())
        assert body["status"] == "ok"

    def test_malformed_trace_header_is_a_400(self, pool_server,
                                             request_images):
        payload = json.dumps(
            {"image": np.asarray(request_images[0]).ravel().tolist(),
             "seed": 1}
        ).encode("utf-8")
        request = urllib.request.Request(
            pool_server.url + "/v1/models/spikedyn/predict", data=payload,
            headers={"Content-Type": "application/json",
                     TRACE_HEADER: "bad header!"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read())
        assert envelope["error"]["code"] == "invalid_request"

    def test_forced_tracing_derives_id_from_seed(self, pool_server,
                                                 pool_ledger_dir,
                                                 request_images, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        client = ServingClient(pool_server.url, retries=0)
        body = client.predict(request_images[2], seed=11, model="spikedyn")
        expected = trace_id_for_request(11)
        assert body["trace_id"] == expected
        spans = _wait_for_spans(pool_ledger_dir, expected, minimum=1)
        assert any(span["name"] == "http_request" for span in spans)


@pytest.mark.integration
class TestShardTracing:
    def test_one_predict_spans_two_processes(self, shard_server,
                                             shard_ledger_dir,
                                             request_images):
        client = ServingClient(shard_server.url, retries=0)
        body = client.predict(request_images[0], seed=5, model="spikedyn",
                              trace_id="shard-trace-1")
        assert body["trace_id"] == "shard-trace-1"
        spans = _wait_for_spans(shard_ledger_dir, "shard-trace-1", minimum=6)
        names = {span["name"] for span in spans}
        assert {"http_request", "queue_wait", "shard_rpc",
                "shard_batch", "encode", "kernel"} <= names
        summary = trace_summary(spans)
        assert summary["processes"] >= 2  # server pid + shard worker pid
        # The tree hangs together across the process boundary.
        (root,) = build_trace_tree(spans)
        assert root.name == "http_request"
        (rpc,) = [c for c in root.children if c.name == "shard_rpc"]
        (batch,) = [c for c in rpc.children if c.name == "shard_batch"]
        assert batch.record["pid"] != root.record["pid"]
        assert {c.name for c in batch.children} >= {"encode", "kernel"}
        # And the CLI-facing renderer reconstructs it.
        text = format_trace(RunLedger(shard_ledger_dir), "shard-trace-1")
        assert "http_request" in text and "shard_batch" in text


@pytest.mark.integration
class TestCrashTraceContinuity:
    def test_sigkilled_shard_continues_the_same_trace_with_retry_spans(
            self, artifact_dir, trained_model, request_images, request_seeds,
            tmp_path):
        """SIGKILL the only shard mid-trace: the respawned worker keeps
        recording under the same trace id and the retried RPC attempt is
        flagged ``retry=1`` (satellite 3)."""
        ledger = RunLedger(tmp_path / "ledger")
        pool = ShardProcessPool(artifact_dir, shards=1, max_batch=2,
                                max_wait_ms=1.0, ledger=ledger)
        pool.start()
        context = TraceContext(trace_id="kill-trace")
        try:
            # Warm-up: spans recorded by the original worker pid.
            with trace_scope(context):
                first = pool.predict(request_images[0],
                                     seed=request_seeds[0], timeout=120.0)
            pid = pool.shard_pids()[0]
            assert pid is not None

            # Kill the worker during an outstanding RPC, by construction:
            # freeze it first, so the batch it is sent cannot be answered,
            # and kill it only once the pool has claimed a batch and entered
            # the RPC (past its liveness check).  The dead worker then fails
            # that RPC, which is retried on the respawned process.
            os.kill(pid, signal.SIGSTOP)
            in_rpc = threading.Event()
            rpc = pool._rpc

            def observed_rpc(handle, payload):
                in_rpc.set()
                return rpc(handle, payload)

            pool._rpc = observed_rpc
            with trace_scope(context):
                futures = [pool.submit(image, seed=seed)
                           for image, seed in zip(request_images,
                                                  request_seeds)]
            assert in_rpc.wait(timeout=60.0)
            os.kill(pid, signal.SIGKILL)
            served = np.array([future.result(timeout=120.0).prediction
                               for future in futures])
            offline = offline_predictions(trained_model, request_images,
                                          request_seeds)
            np.testing.assert_array_equal(served, offline)
            retried = [span for span in trace_spans(ledger, "kill-trace")
                       if span.get("retry") == 1]
            assert retried, "no retried span recorded after the SIGKILL"
            assert {span["name"] for span in retried} & {"shard_rpc",
                                                         "shard_batch"}

            # Same trace id, spans from both the killed and the respawned
            # worker process.
            spans = trace_spans(ledger, "kill-trace")
            worker_pids = {span["pid"] for span in spans
                           if span["name"] == "shard_batch"}
            assert len(worker_pids) >= 2
            assert pool.respawns_total >= 1
            assert first.prediction == offline_predictions(
                trained_model, request_images[:1], request_seeds[:1]
            )[0]
        finally:
            pool.stop(cancel_pending=True)

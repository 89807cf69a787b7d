"""Serving-pool tests: concurrent equivalence, isolation, failure paths.

The lifecycle and failure contract is one suite run against both
executors — ``thread`` (:class:`ReplicaPool`) and ``shard``
(:class:`ShardProcessPool`) — because both are the one serving pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.observability.ledger import KIND_SERVING_BATCH, RunLedger
from repro.serving import (
    PredictRequest,
    QueueClosedError,
    ReplicaPool,
    ShardProcessPool,
    offline_predictions,
    pool_sender,
    run_load,
)


@pytest.fixture
def pool(artifact):
    pool = ReplicaPool.from_artifact(artifact, workers=2, max_batch=8,
                                     max_wait_ms=5.0, max_queue=256)
    with pool:
        yield pool


@pytest.fixture(params=["thread", "shard"])
def make_pool(request, artifact, artifact_dir):
    """Factory of unstarted one-slot pools on the parametrized executor;
    every pool it built is stopped afterwards."""
    pools = []

    def make(**options):
        if request.param == "thread":
            built = ReplicaPool.from_artifact(artifact, workers=1, **options)
        else:
            built = ShardProcessPool(artifact_dir, shards=1, **options)
        pools.append(built)
        return built

    yield make
    for built in pools:
        built.stop(cancel_pending=True)


def _fail_every_batch(pool, monkeypatch) -> None:
    """Make every batch fail inside the executor with a ``boom`` error."""
    if isinstance(pool, ReplicaPool):
        def explode(requests):
            raise RuntimeError("boom")

        monkeypatch.setattr(pool.replicas[0], "predict_batch", explode)
    else:
        # The shard answers the round-trip with its error reply.
        monkeypatch.setattr(pool, "_rpc", lambda handle, payload: (
            "error", "RuntimeError: boom"))


def _invalid_image(kind, n_input):
    image = np.full(n_input, 0.5)
    if kind == "size":
        return np.zeros(7)
    image[0] = {"negative": -0.5, "nan": np.nan, "inf": np.inf}[kind]
    return image


class TestConcurrentEquivalence:
    def test_concurrent_predictions_match_offline_batched_path(
            self, pool, artifact, request_images, request_seeds):
        """The tentpole guarantee: micro-batched concurrent serving returns
        predictions bit-identical to the offline ``eval_batch_size`` path."""
        reference = offline_predictions(artifact.build_model(),
                                        request_images, request_seeds)
        report = run_load(pool_sender(pool), request_images, request_seeds,
                          concurrency=8)
        assert report.errors == []
        np.testing.assert_array_equal(report.predictions, reference)

    def test_equivalence_holds_per_seed(self, pool, artifact, request_images):
        """Changing a request's seed changes (only) that request's answer."""
        model = artifact.build_model()
        image = request_images[0]
        for seed in (0, 1, 99):
            served = pool.predict(image, seed=seed, timeout=30.0)
            reference = offline_predictions(model, [image], [seed])[0]
            assert served.prediction == reference

    def test_repeated_requests_are_reproducible(self, pool, request_images):
        first = pool.predict(request_images[0], seed=5, timeout=30.0)
        second = pool.predict(request_images[0], seed=5, timeout=30.0)
        assert first.prediction == second.prediction
        assert first.spike_count == second.spike_count
        np.testing.assert_array_equal(first.scores, second.scores)


class TestReplicaIsolation:
    def test_replicas_share_no_mutable_state(self, pool):
        services = pool.replicas
        assert len(services) == 2
        first, second = services[0].model, services[1].model
        assert first is not second
        assert first.network is not second.network
        assert not np.shares_memory(first.input_weights, second.input_weights)
        assert not np.shares_memory(first.assignments, second.assignments)
        theta_a = first.network.group("excitatory").theta
        theta_b = second.network.group("excitatory").theta
        assert not np.shares_memory(theta_a, theta_b)

    def test_corrupting_one_replica_does_not_leak(self, artifact,
                                                  request_images):
        """Zeroing replica 0's weights must leave replica 1's answers intact."""
        pool = ReplicaPool.from_artifact(artifact, workers=2, max_batch=4)
        clean = offline_predictions(artifact.build_model(),
                                    request_images[:3], [0, 1, 2])
        pool.replicas[0].model.input_weights[:] = 0.0
        requests = [PredictRequest(image=image, seed=seed)
                    for image, seed in zip(request_images[:3], [0, 1, 2])]
        predictions = [result.prediction
                       for result in pool.replicas[1].predict_batch(requests)]
        np.testing.assert_array_equal(np.asarray(predictions), clean)


class TestLifecycleAndFailures:
    @pytest.mark.parametrize("kind, match", [
        ("size", "pixels"),
        ("negative", "non-negative"),
        ("nan", "non-finite"),
        ("inf", "non-finite"),
    ])
    def test_invalid_images_are_rejected_synchronously(self, make_pool, kind,
                                                       match):
        """One bad image must not poison a whole micro-batch in a worker:
        it is refused before it is queued, and counted as rejected."""
        pool = make_pool()
        with pytest.raises(ValueError, match=match):
            pool.submit(_invalid_image(kind, pool.n_input))
        snapshot = pool.metrics_snapshot()
        assert snapshot["rejected_total"] == 1
        assert snapshot["requests_total"] == 0
        assert pool.queue_depth == 0

    def test_failing_batch_reaches_the_future_and_the_slot_keeps_serving(
            self, make_pool, request_images, monkeypatch, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        pool = make_pool(max_batch=4, ledger=ledger)
        pool.start()
        with monkeypatch.context() as patch:
            _fail_every_batch(pool, patch)
            future = pool.submit(request_images[0], seed=0)
            with pytest.raises(RuntimeError, match="boom"):
                future.result(60.0)
        assert pool.metrics_snapshot()["errors_total"] == 1
        # The worker loop survived the failure: the next batch is served.
        assert pool.predict(request_images[0], seed=0,
                            timeout=60.0).prediction >= 0
        pool.stop()
        outcomes = [(entry["outcome"], entry.get("error"))
                    for entry in ledger.entries(kind=KIND_SERVING_BATCH)]
        assert outcomes[0][0] == "error" and "boom" in outcomes[0][1]
        assert outcomes[1] == ("ok", None)

    def test_stop_drains_pending_requests(self, make_pool, request_images):
        pool = make_pool(max_batch=4, max_wait_ms=0.0)
        pool.start()
        futures = [pool.submit(image, seed=index)
                   for index, image in enumerate(request_images[:4])]
        pool.stop()
        assert all(future.done() for future in futures)
        assert all(future.result(0).prediction >= 0 for future in futures)

    def test_submit_after_stop_raises(self, make_pool, request_images):
        pool = make_pool()
        pool.start()
        pool.stop()
        with pytest.raises(QueueClosedError):
            pool.submit(request_images[0])

    def test_restarting_a_stopped_pool_is_refused(self, make_pool):
        """A stopped pool's queue is closed forever; a second start() must
        fail loudly instead of reporting healthy-but-dead workers — whether
        or not the pool ever ran."""
        never_started = make_pool()
        never_started.stop(cancel_pending=True)
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            never_started.start()
        pool = make_pool()
        pool.start()
        pool.stop()
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            pool.start()
        assert not pool.running

    def test_predict_timeout_cancels_the_request(self, make_pool,
                                                 request_images):
        """A timed-out predict() must not leave its request consuming a
        worker later."""
        from concurrent.futures import TimeoutError as FutureTimeoutError

        pool = make_pool(max_batch=2)
        # Workers never started: the request stays queued past the timeout.
        with pytest.raises(FutureTimeoutError):
            pool.predict(request_images[0], seed=0, timeout=0.05)
        pending = pool.batcher.next_batch(timeout=0.1)
        assert len(pending) == 1
        assert pending[0].future.cancelled()

    def test_metrics_account_for_every_request(self, pool, request_images,
                                               request_seeds):
        run_load(pool_sender(pool), request_images, request_seeds,
                 concurrency=6)
        snapshot = pool.metrics_snapshot()
        n = len(request_images)
        assert snapshot["requests_total"] >= n
        assert snapshot["responses_total"] >= n
        histogram = snapshot["batch_size_histogram"]
        assert sum(int(size) * count for size, count in histogram.items()) \
            >= n
        assert "p99_ms" in snapshot["latency"]
        assert snapshot["queue_depth"] == 0

    def test_metrics_report_the_active_backend(self, pool, artifact):
        assert pool.backend_name == "sparse"
        assert pool.metrics_snapshot()["backend"] == "sparse"
        sparse_pool = ReplicaPool.from_artifact(artifact, workers=1)
        assert sparse_pool.backend_name == "sparse"
        assert sparse_pool.metrics_snapshot()["backend"] == "sparse"

    def test_sparse_backend_replicas_predict_identically(
            self, pool, artifact, request_images, request_seeds):
        with ReplicaPool.from_artifact(artifact, workers=2) as sparse_pool:
            sparse = [sparse_pool.predict(image, seed=seed, timeout=30.0)
                      for image, seed in zip(request_images, request_seeds)]
        # The shared pool fixture is already running.
        dense = [pool.predict(image, seed=seed, timeout=30.0)
                 for image, seed in zip(request_images, request_seeds)]
        assert [r.prediction for r in sparse] == [r.prediction for r in dense]
        assert [r.spike_count for r in sparse] == [r.spike_count for r in dense]

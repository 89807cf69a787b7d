"""Load-generator tests against an in-process pool target."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import ReplicaPool, http_sender, pool_sender, run_load


@pytest.fixture
def pool(artifact):
    pool = ReplicaPool.from_artifact(artifact, workers=1, max_batch=8,
                                     max_wait_ms=2.0, max_queue=256)
    with pool:
        yield pool


class TestRunLoad:
    def test_report_accounts_for_every_request(self, pool, request_images,
                                               request_seeds):
        report = run_load(pool_sender(pool), request_images, request_seeds,
                          concurrency=4)
        assert report.n_requests == len(request_images)
        assert report.ok == len(request_images)
        assert report.errors == []
        assert (report.predictions >= 0).all()
        assert report.latencies_s.size == len(request_images)
        assert report.throughput_rps > 0
        assert report.latency_quantile_ms(50) <= report.latency_quantile_ms(99)

    def test_summary_is_json_safe(self, pool, request_images, request_seeds):
        import json

        report = run_load(pool_sender(pool), request_images, request_seeds,
                          concurrency=2)
        summary = json.loads(json.dumps(report.summary()))
        assert summary["requests"] == len(request_images)
        assert summary["errors"] == 0
        assert summary["concurrency"] == 2

    def test_predictions_line_up_with_request_indices(self, pool,
                                                      request_images,
                                                      request_seeds):
        sequential = run_load(pool_sender(pool), request_images,
                              request_seeds, concurrency=1)
        concurrent = run_load(pool_sender(pool), request_images,
                              request_seeds, concurrency=8)
        np.testing.assert_array_equal(sequential.predictions,
                                      concurrent.predictions)

    def test_sender_errors_are_recorded_per_request(self, request_images):
        def flaky(image, seed):
            if seed is not None and seed % 2:
                raise RuntimeError("boom")
            return 0

        report = run_load(flaky, request_images,
                          list(range(len(request_images))), concurrency=3)
        odd = len(request_images) // 2
        assert len(report.errors) == odd
        assert all("boom" in message for _, message in report.errors)
        assert report.ok == len(request_images) - odd

    def test_empty_request_list_raises(self, pool):
        with pytest.raises(ValueError, match="at least one"):
            run_load(pool_sender(pool), [])

    def test_seed_count_mismatch_raises(self, pool, request_images):
        with pytest.raises(ValueError, match="seeds"):
            run_load(pool_sender(pool), request_images, [1])


def test_http_sender_requires_a_model():
    with pytest.raises(TypeError, match="model"):
        http_sender("http://127.0.0.1:1")

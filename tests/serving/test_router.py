"""ModelRouter unit tests against scripted stub pools.

The router is policy, not inference: these tests drive it with in-memory
stub pools whose ``predict`` follows a script (succeed, crash, overflow),
so LRU eviction, rate limiting, circuit breaking, and bounded retry are
each exercised deterministically and in milliseconds.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.observability.metrics import MetricsRegistry
from repro.observability.prometheus import (
    METRIC_PREFIX,
    parse_prometheus_text,
    render_prometheus,
)
from repro.serving.batcher import MicroBatcher, QueueClosedError, QueueFullError
from repro.serving.errors import (
    ApiError,
    CircuitOpenError,
    ModelNotFoundError,
    RateLimitedError,
    ShardCrashedError,
)
from repro.serving.inference import PredictResult
from repro.serving.router import ModelRouter, parse_version


def _result(prediction: int = 1) -> PredictResult:
    return PredictResult(prediction=prediction, seed=0, spike_count=1.0,
                         scores=np.zeros(10))


class StubPool:
    """Pool double: records calls, raises per a mutable script."""

    def __init__(self, name: str = "stub") -> None:
        self.name = name
        self.batcher = MicroBatcher(max_batch=4, max_wait_ms=1.0)
        self.script = []  # exceptions (or None for success), consumed FIFO
        self.metrics = MetricsRegistry(METRIC_PREFIX)
        self.calls = 0
        self.started = 0
        self.stopped = 0

    # lifecycle / introspection (the ReplicaPool surface the router uses)
    def start(self):
        self.started += 1
        return self

    def stop(self, timeout=10.0, cancel_pending=False):
        self.stopped += 1

    @property
    def running(self):
        return self.started > self.stopped

    n_input = 196
    model_name = "spikedyn"
    backend_name = "dense"
    workers = 1
    queue_depth = 0

    def predict(self, image, seed=None, timeout=None):
        self.calls += 1
        action = self.script.pop(0) if self.script else None
        if action is not None:
            raise action
        return _result()

    def metrics_snapshot(self):
        return {"requests_total": self.calls, "backend": "dense",
                "model": "spikedyn"}


@pytest.fixture
def pools():
    """Factory tracking every stub pool it built, keyed by artifact dir."""
    built = {}

    def factory(artifact_dir: str):
        pool = StubPool(artifact_dir)
        built.setdefault(artifact_dir, []).append(pool)
        return pool

    factory.built = built
    return factory


def make_router(factory, **kwargs):
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("retry_backoff_s", 0.0)
    kwargs.setdefault("sleep", lambda s: None)
    return ModelRouter(factory, **kwargs)


IMAGE = np.zeros(4)


class TestParseVersion:
    def test_accepted_spellings(self):
        assert parse_version("v3") == 3
        assert parse_version("v0003") == 3
        assert parse_version("3") == 3
        assert parse_version(7) == 7

    def test_rejections(self):
        for bad in ("", "vv3", "three", 0, -1, "v0"):
            with pytest.raises(ApiError) as excinfo:
                parse_version(bad)
            assert excinfo.value.status == 400


class TestModelTable:
    def test_pinned_model_serves(self, pools):
        router = make_router(pools)
        router.add_model("a", "dir-a")
        assert router.predict("a", IMAGE).prediction == 1
        assert router.default_model == "a"
        assert pools.built["dir-a"][0].started == 1

    def test_unknown_model_404s(self, pools):
        router = make_router(pools)
        with pytest.raises(ModelNotFoundError) as excinfo:
            router.predict("ghost", IMAGE)
        assert excinfo.value.status == 404

    def test_duplicate_pin_rejected(self, pools):
        router = make_router(pools)
        router.add_model("a", "dir-a")
        with pytest.raises(ValueError):
            router.add_model("a", "dir-a2")

    def test_stopped_router_rejects(self, pools):
        router = make_router(pools)
        router.add_model("a", "dir-a")
        router.stop()
        with pytest.raises(ApiError) as excinfo:
            router.predict("a", IMAGE)
        assert excinfo.value.status == 503
        assert pools.built["dir-a"][0].stopped == 1


class FakeRegistry:
    """ArtifactRegistry double over an in-memory {name: [versions]} table."""

    def __init__(self, table):
        self.table = dict(table)

    def versions(self, name):
        return sorted(self.table.get(name, []))

    def latest_version(self, name):
        versions = self.versions(name)
        return versions[-1] if versions else 0

    def path_of(self, name, version=None):
        from repro.serving.artifacts import ArtifactError

        if version is None:
            version = self.latest_version(name)
        if version == 0 or version not in self.versions(name):
            raise ArtifactError(f"no version {version} of {name!r}")
        return f"{name}/v{version:04d}"

    def list_artifacts(self):
        return sorted((name, self.versions(name)) for name in self.table)


class TestRegistryLRU:
    def test_lazy_load_and_latest_resolution(self, pools):
        registry = FakeRegistry({"m": [1, 2]})
        router = make_router(pools, registry=registry)
        router.predict("m", IMAGE)
        assert list(pools.built) == ["m/v0002"]  # latest wins
        router.predict("m", IMAGE, version="v1")
        assert "m/v0001" in pools.built

    def test_eviction_is_lru(self, pools):
        registry = FakeRegistry({"a": [1], "b": [1], "c": [1]})
        router = make_router(pools, registry=registry, max_models=2)
        router.predict("a", IMAGE)
        router.predict("b", IMAGE)
        router.predict("a", IMAGE)  # refresh a; b is now least recent
        router.predict("c", IMAGE)  # evicts b
        assert router.evictions_total == 1
        assert pools.built["b/v0001"][0].stopped == 1
        assert pools.built["a/v0001"][0].stopped == 0
        # a reload of b builds a fresh pool
        router.predict("b", IMAGE)
        assert len(pools.built["b/v0001"]) == 2

    def test_pinned_models_never_evicted(self, pools):
        registry = FakeRegistry({"a": [1], "b": [1]})
        router = make_router(pools, registry=registry, max_models=1)
        router.add_model("pinned", "dir-p")
        router.predict("a", IMAGE)
        router.predict("b", IMAGE)  # evicts a, not the pinned model
        assert pools.built["dir-p"][0].stopped == 0
        assert pools.built["a/v0001"][0].stopped == 1

    def test_unknown_version_404s(self, pools):
        registry = FakeRegistry({"m": [1]})
        router = make_router(pools, registry=registry)
        with pytest.raises(ModelNotFoundError):
            router.predict("m", IMAGE, version="v9")

    def test_registry_requires_factory(self):
        with pytest.raises(ValueError):
            ModelRouter(registry=FakeRegistry({}))

    def test_slow_load_does_not_block_other_models(self, pools):
        # Pool build/start runs outside the router lock: a cold registry
        # load of one model must not stall requests to resident models.
        import threading

        started_loading = threading.Event()
        release_loading = threading.Event()

        def slow_factory(artifact_dir: str):
            if artifact_dir.startswith("slow"):
                started_loading.set()
                assert release_loading.wait(timeout=5.0)
            return pools(artifact_dir)

        registry = FakeRegistry({"slow": [1]})
        router = make_router(slow_factory, registry=registry)
        router.add_model("fast", "dir-fast")
        loader = threading.Thread(
            target=lambda: router.predict("slow", IMAGE), daemon=True
        )
        loader.start()
        assert started_loading.wait(timeout=5.0)
        # The slow load is mid-flight and holds no router lock:
        assert router.predict("fast", IMAGE).prediction == 1
        assert router.health("fast")["status"] == "ok"
        release_loading.set()
        loader.join(timeout=5.0)
        assert not loader.is_alive()
        assert len(pools.built["slow/v0001"]) == 1

    def test_concurrent_loads_of_one_key_build_one_pool(self, pools):
        import threading

        block = threading.Event()

        def gated_factory(artifact_dir: str):
            assert block.wait(timeout=5.0)
            return pools(artifact_dir)

        registry = FakeRegistry({"m": [1]})
        router = make_router(gated_factory, registry=registry)
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(router.predict("m", IMAGE)),
                daemon=True,
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        block.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(results) == 4
        assert len(pools.built["m/v0001"]) == 1  # one loader, three waiters

    def test_failed_load_unwedges_waiters(self, pools):
        # A factory crash must clear the loading reservation so the next
        # request can retry instead of waiting forever.
        attempts = []

        def flaky_factory(artifact_dir: str):
            attempts.append(artifact_dir)
            if len(attempts) == 1:
                raise RuntimeError("artifact corrupt")
            return pools(artifact_dir)

        registry = FakeRegistry({"m": [1]})
        router = make_router(flaky_factory, registry=registry)
        with pytest.raises(RuntimeError):
            router.predict("m", IMAGE)
        assert router.predict("m", IMAGE).prediction == 1
        assert len(attempts) == 2

    def test_default_model_is_the_first_loaded_registry_model(self, pools):
        registry = FakeRegistry({"m": [1, 2]})
        router = make_router(pools, registry=registry)
        assert router.default_model is None
        router.predict("m", IMAGE)
        assert router.default_model == "m"

    def test_list_models_merges_loaded_and_registry(self, pools):
        registry = FakeRegistry({"m": [1, 2]})
        router = make_router(pools, registry=registry)
        router.add_model("pinned", "dir-p")
        router.predict("m", IMAGE)
        catalogue = {record["name"]: record for record in router.list_models()}
        assert catalogue["pinned"]["pinned"] is True
        assert catalogue["m"]["registry_versions"] == [1, 2]
        assert catalogue["m"]["loaded_versions"] == [2]


class TestLimitsCheckedAtConstruction:
    """A bad limit is the server's misconfiguration: it fails when the
    router is built, not as a client error on the first request."""

    @pytest.mark.parametrize("rate", [0.0, -5.0, float("nan"), float("inf")])
    def test_bad_rate_rejected(self, pools, rate):
        with pytest.raises(ValueError, match="rate_rps"):
            make_router(pools, rate_rps=rate)

    @pytest.mark.parametrize("burst", [0.0, 0.5, float("nan"), float("inf")])
    def test_bad_burst_rejected(self, pools, burst):
        with pytest.raises(ValueError, match="rate_burst"):
            make_router(pools, rate_rps=10.0, rate_burst=burst)

    def test_burst_without_rate_rejected(self, pools):
        """A burst with no rate builds no bucket: it would be accepted and
        limit nothing."""
        with pytest.raises(ValueError, match="rate_burst.*rate_rps"):
            make_router(pools, rate_burst=3)

    @pytest.mark.parametrize("name", ["breaker_window_s", "breaker_reset_s"])
    @pytest.mark.parametrize("value", [0.0, float("nan")])
    def test_bad_breaker_durations_rejected(self, pools, name, value):
        with pytest.raises(ValueError, match=name):
            make_router(pools, **{name: value})

    def test_bad_breaker_threshold_rejected(self, pools):
        with pytest.raises(ValueError, match="breaker_failures"):
            make_router(pools, breaker_failures=0)

    def test_valid_limits_are_kept(self, pools):
        router = make_router(pools, rate_rps=2, rate_burst=3, breaker_window_s=1)
        assert (router.rate_rps, router.rate_burst) == (2.0, 3.0)
        assert router.breaker_window_s == 1.0
        unlimited = make_router(pools, breaker_failures=None)
        assert unlimited.rate_rps is None and unlimited.rate_burst is None


class TestRateLimiting:
    def test_bucket_exhaustion_raises_429_with_retry_after(self, pools):
        router = make_router(pools, rate_rps=1.0, rate_burst=2)
        router.add_model("a", "dir-a")
        router.predict("a", IMAGE)
        router.predict("a", IMAGE)
        with pytest.raises(RateLimitedError) as excinfo:
            router.predict("a", IMAGE)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after_header is not None
        assert router.entries()[0].rate_limited_total == 1

    def test_tenants_have_independent_buckets(self, pools):
        router = make_router(pools, rate_rps=1.0, rate_burst=1)
        router.add_model("a", "dir-a")
        router.predict("a", IMAGE, tenant="alice")
        with pytest.raises(RateLimitedError):
            router.predict("a", IMAGE, tenant="alice")
        router.predict("a", IMAGE, tenant="bob")  # unaffected

    def test_models_have_independent_buckets(self, pools):
        router = make_router(pools, rate_rps=1.0, rate_burst=1)
        router.add_model("a", "dir-a")
        router.add_model("b", "dir-b")
        router.predict("a", IMAGE)
        router.predict("b", IMAGE)

    def test_no_rate_limit_by_default(self, pools):
        router = make_router(pools)
        router.add_model("a", "dir-a")
        for _ in range(50):
            router.predict("a", IMAGE)


class TestRetryAndBreaker:
    def test_transient_crash_is_retried_transparently(self, pools):
        router = make_router(pools)
        router.add_model("a", "dir-a")
        pool = pools.built["dir-a"][0]
        pool.script = [ShardCrashedError("shard 0 died"), None]
        assert router.predict("a", IMAGE).prediction == 1
        assert pool.calls == 2
        assert router.entries()[0].retries_total == 1

    def test_retries_are_bounded(self, pools):
        router = make_router(pools, retries=2)
        router.add_model("a", "dir-a")
        pool = pools.built["dir-a"][0]
        pool.script = [ShardCrashedError("dead")] * 3
        with pytest.raises(ApiError) as excinfo:
            router.predict("a", IMAGE)
        assert excinfo.value.status == 503
        assert excinfo.value.code == "upstream_failure"
        assert pool.calls == 3  # 1 + 2 retries

    def test_backoff_grows_and_jitters(self, pools):
        sleeps = []
        router = make_router(pools, retries=3, retry_backoff_s=0.1,
                             sleep=sleeps.append)
        router.add_model("a", "dir-a")
        pool = pools.built["dir-a"][0]
        pool.script = [ShardCrashedError("dead")] * 3 + [None]
        router.predict("a", IMAGE)
        assert len(sleeps) == 3
        for index, slept in enumerate(sleeps):
            base = 0.1 * (2 ** index)
            assert 0.5 * base <= slept < 1.5 * base

    def test_repeated_crashes_open_the_breaker(self, pools):
        router = make_router(pools, retries=0, breaker_failures=3)
        router.add_model("a", "dir-a")
        pool = pools.built["dir-a"][0]
        pool.script = [ShardCrashedError("dead")] * 3
        for _ in range(3):
            with pytest.raises(ApiError):
                router.predict("a", IMAGE)
        with pytest.raises(CircuitOpenError) as excinfo:
            router.predict("a", IMAGE)
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after_header is not None
        assert pool.calls == 3  # the shed request never reached the pool
        assert router.entries()[0].shed_total == 1
        assert router.health("a")["status"] == "shedding"

    def test_queue_full_is_429_not_a_breaker_failure(self, pools):
        router = make_router(pools, retries=0, breaker_failures=2)
        router.add_model("a", "dir-a")
        pool = pools.built["dir-a"][0]
        pool.script = [QueueFullError("queue full")] * 5
        for _ in range(5):
            with pytest.raises(ApiError) as excinfo:
                router.predict("a", IMAGE)
            assert excinfo.value.status == 429
            assert excinfo.value.code == "queue_full"
        # backpressure never opened the breaker
        assert router.entries()[0].breaker.state_name == "closed"

    def test_queue_closed_on_live_router_is_retryable(self, pools):
        # The model's queue closing while the router is up means the model
        # was evicted/stopped, not that the server is going down: clients
        # should retry, not disconnect.
        router = make_router(pools)
        router.add_model("a", "dir-a")
        pools.built["dir-a"][0].script = [QueueClosedError("closed")]
        with pytest.raises(ApiError) as excinfo:
            router.predict("a", IMAGE)
        assert excinfo.value.code == "upstream_failure"
        assert excinfo.value.retry_after_header is not None

    def test_cancelled_on_live_router_is_retryable(self, pools):
        from concurrent.futures import CancelledError

        router = make_router(pools)
        router.add_model("a", "dir-a")
        pools.built["dir-a"][0].script = [CancelledError()]
        with pytest.raises(ApiError) as excinfo:
            router.predict("a", IMAGE)
        assert excinfo.value.code == "upstream_failure"

    def test_no_verdict_outcomes_release_the_half_open_probe(self, pools):
        # Regression: a half-open probe that ends in an outcome saying
        # nothing about model health (bad input, backpressure) must free
        # its slot, or the breaker sheds 100% of traffic forever.
        router = make_router(pools, retries=0, breaker_failures=1,
                             breaker_reset_s=0.01)
        router.add_model("a", "dir-a")
        pool = pools.built["dir-a"][0]
        pool.script = [ShardCrashedError("dead")]
        with pytest.raises(ApiError):
            router.predict("a", IMAGE)  # opens the breaker
        import time as _time

        for no_verdict in (ValueError("bad image"), QueueFullError("full")):
            _time.sleep(0.05)  # past reset_s: next request is the probe
            pool.script = [no_verdict]
            with pytest.raises((ValueError, ApiError)):
                router.predict("a", IMAGE)
        _time.sleep(0.05)
        assert router.predict("a", IMAGE).prediction == 1  # probe succeeds
        assert router.entries()[0].breaker.state_name == "closed"

    def test_model_runtime_error_counts_and_503s(self, pools):
        router = make_router(pools, breaker_failures=2)
        router.add_model("a", "dir-a")
        pool = pools.built["dir-a"][0]
        pool.script = [RuntimeError("inference exploded")] * 2
        for _ in range(2):
            with pytest.raises(ApiError) as excinfo:
                router.predict("a", IMAGE)
            assert excinfo.value.code == "upstream_failure"
        assert router.entries()[0].breaker.state_name == "open"

    def test_validation_errors_propagate_untouched(self, pools):
        router = make_router(pools)
        router.add_model("a", "dir-a")
        pools.built["dir-a"][0].script = [ValueError("bad image")]
        with pytest.raises(ValueError):
            router.predict("a", IMAGE)

    def test_breaker_disabled(self, pools):
        router = make_router(pools, retries=0, breaker_failures=None)
        router.add_model("a", "dir-a")
        pool = pools.built["dir-a"][0]
        pool.script = [ShardCrashedError("dead")] * 10
        for _ in range(10):
            with pytest.raises(ApiError):
                router.predict("a", IMAGE)
        assert pool.calls == 10  # nothing ever shed


class TestHealthAndMetrics:
    def test_health_of_resident_model(self, pools):
        router = make_router(pools)
        router.add_model("a", "dir-a")
        health = router.health("a")
        assert health["status"] == "ok"
        assert health["pinned"] is True
        assert health["workers"] == 1
        assert "circuit" in health

    def test_health_of_unloaded_registry_model(self, pools):
        router = make_router(pools, registry=FakeRegistry({"m": [1]}))
        assert router.health("m")["status"] == "unloaded"
        with pytest.raises(ModelNotFoundError):
            router.health("ghost")

    def test_metrics_snapshots_keyed_and_annotated(self, pools):
        registry = FakeRegistry({"m": [2]})
        router = make_router(pools, registry=registry)
        router.add_model("a", "dir-a")
        router.predict("m", IMAGE)
        snapshots = router.metrics_snapshots()
        assert set(snapshots) == {"a", "m@v0002"}
        assert snapshots["a"]["rate_limited_total"] == 0
        assert "circuit" in snapshots["a"]

    def test_evictions_are_exported_router_wide(self, pools):
        router = make_router(pools, registry=FakeRegistry({"a": [1], "b": [1]}),
                             max_models=1)
        router.predict("a", IMAGE)
        router.predict("b", IMAGE)  # evicts a
        series = parse_prometheus_text(render_prometheus(router.metrics_registries()))
        assert series[f"{METRIC_PREFIX}_evictions_total"] == {(): 1.0}
        assert router.metrics.snapshot() == {"evictions_total": 1}

    def test_counters_are_exact_under_concurrent_handlers(self, pools):
        """N handler threads x M increments of every router/entry counter
        give exactly N*M, in the JSON snapshot and in the text."""
        threads_n, per_thread = 8, 250
        router = make_router(pools, rate_rps=1e-6, rate_burst=1,
                             breaker_failures=None)
        router.add_model("a", "dir-a")
        router.predict("a", IMAGE)  # takes the default tenant's one token
        entry = router.entries()[0]
        start = threading.Barrier(threads_n)
        unexpected = []

        def handler():
            start.wait()
            for _ in range(per_thread):
                try:
                    router.predict("a", IMAGE)
                except RateLimitedError:
                    pass
                else:
                    unexpected.append("admitted")
                entry.shed.inc()
                entry.retries.inc()
                router.evictions.inc()

        threads = [threading.Thread(target=handler) for _ in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: lost updates show
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        expected = threads_n * per_thread
        assert not any(thread.is_alive() for thread in threads)
        assert unexpected == []
        snapshot = router.metrics_snapshots()["a"]
        assert entry.rate_limited_total == entry.shed_total == expected
        assert router.evictions_total == expected
        for key in ("rate_limited_total", "shed_total", "retries_total"):
            assert snapshot[key] == expected
        series = parse_prometheus_text(render_prometheus(router.metrics_registries()))
        for key in ("rate_limited_total", "shed_total", "retries_total"):
            assert series[f"{METRIC_PREFIX}_{key}"] == {(("model", "a"),): expected}
        assert series[f"{METRIC_PREFIX}_evictions_total"] == {(): expected}

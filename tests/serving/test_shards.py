"""ShardProcessPool integration tests: bit-equivalence and crash recovery.

Spawning a shard costs a full interpreter start plus an artifact load, so
the suite runs one shared two-shard pool for the happy-path and crash tests
and keeps every request batch small.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.observability.ledger import KIND_SERVING_SHARD, RunLedger
from repro.serving import shards
from repro.serving.artifacts import ArtifactError
from repro.serving.batcher import QueueClosedError
from repro.serving.errors import ShardCrashedError
from repro.serving.inference import offline_predictions
from repro.serving.shards import ShardProcessPool


@pytest.fixture(scope="module")
def ledger_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ledger") / "ledger.jsonl"


@pytest.fixture(scope="module")
def shard_pool(artifact_dir, ledger_path):
    pool = ShardProcessPool(
        artifact_dir, shards=2, max_batch=4, max_wait_ms=2.0,
        ledger=RunLedger(ledger_path),
    )
    pool.start()
    yield pool
    pool.stop(cancel_pending=True)


def _served(pool, images, seeds):
    futures = [pool.submit(image, seed=seed)
               for image, seed in zip(images, seeds)]
    return np.array([future.result(timeout=120.0).prediction
                     for future in futures])


class TestBitEquivalence:
    def test_matches_offline_reference(self, shard_pool, trained_model,
                                       request_images, request_seeds):
        served = _served(shard_pool, request_images, request_seeds)
        offline = offline_predictions(trained_model, request_images,
                                      request_seeds)
        np.testing.assert_array_equal(served, offline)

    def test_full_results_are_deterministic(self, shard_pool, request_images,
                                            request_seeds):
        first = shard_pool.predict(request_images[0], seed=request_seeds[0],
                                   timeout=120.0)
        second = shard_pool.predict(request_images[0], seed=request_seeds[0],
                                    timeout=120.0)
        assert first.prediction == second.prediction
        assert first.spike_count == second.spike_count
        np.testing.assert_array_equal(first.scores, second.scores)


class TestCrashRecovery:
    def test_killed_shard_is_respawned_and_serving_continues(
            self, shard_pool, trained_model, request_images, request_seeds):
        """SIGKILL one worker, then demand bit-identical answers.

        The interrupted batch is retried transparently on the respawned
        process, so no caller observes the crash at all."""
        pids_before = shard_pool.shard_pids()
        assert all(pid is not None for pid in pids_before)
        respawns_before = shard_pool.respawns_total

        os.kill(pids_before[0], signal.SIGKILL)

        served = _served(shard_pool, request_images, request_seeds)
        offline = offline_predictions(trained_model, request_images,
                                      request_seeds)
        np.testing.assert_array_equal(served, offline)

        assert shard_pool.respawns_total == respawns_before + 1
        pids_after = shard_pool.shard_pids()
        assert all(pid is not None for pid in pids_after)
        assert pids_after[0] != pids_before[0]

    def test_ledger_recorded_the_churn(self, shard_pool, ledger_path):
        """Runs after the kill test: spawn/crash/respawn must be on disk."""
        entries = list(RunLedger(ledger_path).entries(kind=KIND_SERVING_SHARD))
        events = [entry["event"] for entry in entries]
        assert events.count("spawned") >= 3  # 2 initial + >=1 respawn
        assert "crashed" in events
        assert "respawned" in events
        assert all("shard" in entry and "model" in entry for entry in entries)

    def test_metrics_snapshot_reports_shard_state(self, shard_pool):
        snapshot = shard_pool.metrics_snapshot()
        shards = snapshot["shards"]
        assert shards["count"] == 2
        assert shards["alive"] == 2
        assert shards["respawns_total"] >= 1
        assert sum(shards["batches_by_shard"].values()) > 0
        assert snapshot["model"] == "spikedyn"
        assert snapshot["backend"] == "sparse"


def _sabotage_spawns(pool, fault, times, skip=0):
    """Make ``times`` of the pool's spawns, after the first ``skip``, fail.

    ``fault`` is ``"killed"`` (the shard dies before ``ready``) or
    ``"oserror"`` (the spawn itself raises, as when the host is out of file
    descriptors).
    """
    spawn = pool._spawn
    calls = [0]

    def sabotaged_spawn(index):
        calls[0] += 1
        if not skip < calls[0] <= skip + times:
            return spawn(index)
        if fault == "oserror":
            raise OSError(errno.EMFILE, "Too many open files")
        handle = spawn(index)
        os.kill(handle.pid, signal.SIGKILL)
        return handle

    pool._spawn = sabotaged_spawn


class TestDeathBeforeReady:
    """A shard killed before it reports ``ready``, or one that cannot be
    spawned at all, must end in a typed error or a recovery within a
    deadline, never a hang or a dead worker loop."""

    @pytest.mark.parametrize("fault, skip, match", [
        ("killed", 0, "died during start-up"),
        ("oserror", 1, "could not be spawned"),
    ])
    def test_at_start_raises_a_typed_error(self, artifact_dir, fault, skip,
                                           match):
        children = set(multiprocessing.active_children())
        pool = ShardProcessPool(artifact_dir, shards=2, max_batch=2)
        _sabotage_spawns(pool, fault, 1, skip=skip)
        with pytest.raises(ShardCrashedError, match=match) as excinfo:
            pool.start()
        if fault == "oserror":
            assert isinstance(excinfo.value.__cause__, OSError)
        # No shard outlives the failed start, and the pool refuses work
        # instead of queueing it for worker loops that never started.
        assert not pool.running
        assert pool.shard_pids() == [None, None]
        assert set(multiprocessing.active_children()) <= children
        with pytest.raises(QueueClosedError):
            pool.submit(np.zeros(pool.n_input))

    @pytest.mark.parametrize("fault", ["killed", "oserror"])
    def test_on_respawn_fails_the_batch_then_recovers(self, artifact_dir,
                                                      request_images, fault):
        pool = ShardProcessPool(artifact_dir, shards=1, max_batch=2)
        pool.start()
        try:
            os.kill(pool.shard_pids()[0], signal.SIGKILL)
            # Both attempts of the next batch get a replacement that fails:
            # the batch fails with the typed error.
            _sabotage_spawns(pool, fault, 2)
            future = pool.submit(request_images[0], seed=0)
            with pytest.raises(ShardCrashedError):
                future.result(timeout=120.0)
            # The worker loop survived: the next batch respawns and serves.
            result = pool.predict(request_images[0], seed=0, timeout=120.0)
            assert result.prediction >= 0
            assert pool.shard_pids()[0] is not None
        finally:
            pool.stop(cancel_pending=True)


class TestFaultInjection:
    def test_hung_batch_is_killed_respawned_and_retried(
            self, artifact_dir, trained_model, request_images, monkeypatch):
        """A stopped (hung) shard is killed at the batch deadline and the
        batch is answered by its replacement, bit-identically."""
        monkeypatch.setattr(shards, "BATCH_TIMEOUT_S", 2.0)
        pool = ShardProcessPool(artifact_dir, shards=1, max_batch=2)
        pool.start()
        try:
            hung = pool.shard_pids()[0]
            os.kill(hung, signal.SIGSTOP)
            served = pool.predict(request_images[0], seed=0, timeout=120.0)
            offline = offline_predictions(trained_model, request_images[:1],
                                          [0])
            assert served.prediction == offline[0]
            assert pool.respawns_total == 1
            assert pool.shard_pids()[0] not in (None, hung)
        finally:
            pool.stop(cancel_pending=True)

    def test_kill_during_stop_leaves_no_live_child(
            self, artifact_dir, trained_model, request_images,
            request_seeds):
        """stop() drains queued work through a shard crash, returns within
        its timeout, and reaps every shard — the respawned one included."""
        children = set(multiprocessing.active_children())
        pool = ShardProcessPool(artifact_dir, shards=2, max_batch=2)
        pool.start()
        futures = [pool.submit(image, seed=seed)
                   for image, seed in zip(request_images, request_seeds)]
        os.kill(pool.shard_pids()[0], signal.SIGKILL)
        timeout = 60.0
        started = time.monotonic()
        pool.stop(timeout=timeout)
        assert time.monotonic() - started < timeout
        assert all(future.done() for future in futures)
        served = [future.result(0).prediction for future in futures]
        np.testing.assert_array_equal(
            served, offline_predictions(trained_model, request_images,
                                        request_seeds))
        assert pool.shard_pids() == [None, None]
        assert set(multiprocessing.active_children()) <= children


class TestPoolContract:
    """Shard-specific surface; the lifecycle and failure contract shared
    with the thread executor is in ``test_pool.py``."""

    def test_introspection_mirrors_replica_pool(self, shard_pool,
                                                serving_config):
        assert shard_pool.n_input == serving_config.n_input
        assert shard_pool.model_name == "spikedyn"
        assert shard_pool.workers == shard_pool.shards == 2
        assert shard_pool.running
        assert shard_pool.queue_depth >= 0
        assert shard_pool.batcher.max_batch == 4

    def test_broken_artifact_fails_fast_in_the_parent(self, tmp_path):
        with pytest.raises(ArtifactError):
            ShardProcessPool(tmp_path / "ghost", shards=1)

    def test_from_artifact_uses_the_artifact_path(self, artifact):
        pool = ShardProcessPool.from_artifact(artifact, shards=1)
        assert pool.artifact_dir == str(artifact.path)
        assert not pool.running

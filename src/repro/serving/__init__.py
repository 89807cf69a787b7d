"""Online inference serving: artifacts, shards, routing, HTTP ``/v1`` API.

The serving subsystem turns trained models into a concurrently-queryable,
multi-tenant service::

    train --> save artifact --> pool: ReplicaPool (thread executor)
                                   or ShardProcessPool (process executor)
          --> ModelRouter --> ModelServer (/v1)

* :mod:`repro.serving.artifacts` — versioned, self-describing model
  artifacts (:func:`load_artifact`, :class:`ArtifactRegistry`);
* :mod:`repro.serving.inference` — seeded per-request encoding and the
  offline reference path serving is provably identical to;
* :mod:`repro.serving.batcher` — thread-safe micro-batching queue
  (``max_batch`` / ``max_wait_ms`` / backpressure);
* :mod:`repro.serving.pool` — the one serving pool: validation, the
  micro-batcher, one worker loop per slot, futures, metrics, drift, ledger
  and lifecycle, over an executor seam.  Its thread executor,
  :class:`ReplicaPool`, gives each worker thread an independent model
  replica (single-core friendly);
* :mod:`repro.serving.shards` — the process executor,
  :class:`ShardProcessPool`: worker *processes* with crash supervision and
  respawn (multi-core throughput, fault isolation);
* :mod:`repro.serving.router` — the multi-tenant control plane: LRU model
  loading from the registry, per-tenant token-bucket rate limiting,
  per-model circuit breaker, bounded retry for transient shard failures;
* :mod:`repro.serving.errors` / :mod:`repro.serving.ratelimit` — the
  structured error envelope and the hardening primitives;
* :mod:`repro.serving.server` — stdlib HTTP API
  (``POST /v1/models/<name>/predict``, ``GET /v1/models``, per-model
  ``healthz``, Prometheus ``/v1/metrics``) behind ``repro serve``;
* :mod:`repro.serving.metrics` / :mod:`repro.serving.drift` — request
  counters, batch-size histogram, latency quantiles, and the online
  spike-count drift alarm;
* :mod:`repro.serving.loadgen` — concurrency-controlled load generation for
  benchmarks, CI smoke tests, and examples.
"""

from repro.models import MODEL_CLASSES
from repro.serving.artifacts import ArtifactRegistry, ModelArtifact, load_artifact
from repro.serving.batcher import MicroBatcher, QueueClosedError, QueueFullError
from repro.serving.drift import SpikeCountDriftDetector
from repro.serving.errors import (
    ApiError,
    CircuitOpenError,
    ModelNotFoundError,
    RateLimitedError,
    ShardCrashedError,
    error_envelope,
)
from repro.serving.inference import (
    PredictionService,
    PredictRequest,
    PredictResult,
    derive_request_seed,
    encode_request,
    offline_predictions,
)
from repro.serving.loadgen import (
    LoadReport,
    http_sender,
    pool_sender,
    run_load,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.pool import ReplicaPool
from repro.serving.ratelimit import CircuitBreaker, TokenBucket
from repro.serving.router import ModelRouter
from repro.serving.server import ModelServer
from repro.serving.shards import ShardProcessPool
from repro.utils.serialization import ArtifactError

__all__ = [
    "ApiError",
    "ArtifactError",
    "ArtifactRegistry",
    "CircuitBreaker",
    "CircuitOpenError",
    "LoadReport",
    "MicroBatcher",
    "MODEL_CLASSES",
    "ModelArtifact",
    "ModelNotFoundError",
    "ModelRouter",
    "ModelServer",
    "PredictRequest",
    "PredictResult",
    "PredictionService",
    "QueueClosedError",
    "QueueFullError",
    "RateLimitedError",
    "ReplicaPool",
    "ServingMetrics",
    "ShardCrashedError",
    "ShardProcessPool",
    "SpikeCountDriftDetector",
    "TokenBucket",
    "derive_request_seed",
    "encode_request",
    "error_envelope",
    "http_sender",
    "load_artifact",
    "offline_predictions",
    "pool_sender",
    "run_load",
]

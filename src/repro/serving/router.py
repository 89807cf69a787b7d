"""Multi-tenant model routing: LRU loading, rate limits, breaker, retry.

:class:`ModelRouter` is the control plane between the HTTP surface and the
inference pools.  It owns the *model table*: **pinned** models (given
explicitly at start-up, never evicted) plus **registry-backed** models
loaded on first request from an :class:`~repro.serving.artifacts.ArtifactRegistry`
and evicted least-recently-used once more than ``max_models`` are resident.
Each resident model gets its own pool (thread- or process-sharded — the
router is policy-only and builds pools through an injected factory), its
own circuit breaker, and a token bucket per tenant.

The request path through :meth:`predict` is hardened in order:

1. **rate limit** — the ``(model, tenant)`` token bucket; an empty bucket
   raises :class:`~repro.serving.errors.RateLimitedError` (HTTP 429 with
   ``Retry-After``), so one noisy tenant cannot starve the rest;
2. **circuit breaker** — a model whose breaker is open sheds load
   instantly (:class:`~repro.serving.errors.CircuitOpenError`, 503 with
   ``Retry-After``) instead of queueing doomed work;
3. **bounded retry** — transient shard crashes
   (:class:`~repro.serving.errors.ShardCrashedError`) are retried with
   jittered exponential backoff up to ``retries`` times, because the shard
   pool respawns dead workers and a fresh process normally succeeds;
4. **breaker bookkeeping** — model/shard failures feed the breaker,
   backpressure (a full queue) deliberately does not: an overloaded model
   is healthy, a crashing one is not.
"""

from __future__ import annotations

import random
import re
import threading
import time
from collections import OrderedDict
from concurrent.futures import CancelledError
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.observability.metrics import MetricsRegistry
from repro.observability.prometheus import METRIC_PREFIX
from repro.observability.structlog import get_struct_logger
from repro.serving.artifacts import ArtifactError, ArtifactRegistry
from repro.serving.batcher import QueueClosedError, QueueFullError
from repro.serving.errors import (
    ApiError,
    CircuitOpenError,
    CODE_QUEUE_FULL,
    CODE_SHUTTING_DOWN,
    CODE_UPSTREAM_FAILURE,
    ModelNotFoundError,
    RateLimitedError,
    ShardCrashedError,
)
from repro.serving.inference import PredictResult
from repro.serving.ratelimit import CircuitBreaker, TokenBucket, check_burst
from repro.utils.validation import check_positive, check_positive_int

_log = get_struct_logger("serving.router")

#: Tenant assumed when a request carries no ``X-Tenant`` header.
DEFAULT_TENANT = "default"

#: Accepted spellings of a version selector: ``v3``, ``v0003``, ``3``.
_VERSION_RE = re.compile(r"^v?(\d{1,9})$")

#: A pool factory builds (but does not start) a pool for an artifact dir.
PoolFactory = Callable[[str], object]


def parse_version(version) -> int:
    """Normalize a version selector (``"v0003"``, ``"3"``, ``3``) to int."""
    if isinstance(version, int):
        number = version
    else:
        match = _VERSION_RE.match(str(version))
        if not match:
            raise ApiError(
                "invalid_request",
                f"invalid version selector {version!r} (expected e.g. 'v3')",
            )
        number = int(match.group(1))
    if number < 1:
        raise ApiError(
            "invalid_request",
            f"version must be >= 1, got {number}",
        )
    return number


class _ModelEntry:
    """One resident model: its pool plus per-model hardening state."""

    def __init__(self, name: str, version: Optional[int], pool,
                 breaker: Optional[CircuitBreaker], pinned: bool) -> None:
        self.name = name
        self.version = version
        self.pool = pool
        self.breaker = breaker
        self.pinned = pinned
        self.buckets: Dict[str, TokenBucket] = {}
        self.bucket_lock = threading.Lock()
        # The entry's own metrics, exported next to its pool's under the
        # entry's ``model`` label.
        self.metrics = MetricsRegistry(METRIC_PREFIX)
        self.rate_limited = self.metrics.counter(
            "rate_limited_total", "Requests rejected by per-tenant rate limiting.")
        self.shed = self.metrics.counter(
            "shed_total", "Requests shed by the model's open circuit breaker.")
        self.retries = self.metrics.counter(
            "retries_total", "Transparent retries after transient shard failures.")
        if breaker is not None:
            self.metrics.gauge(
                "circuit_breaker_open", "1 while the model's circuit breaker is not closed.",
                key=None, read=lambda: float(breaker.state_name != "closed"))
            self.metrics.counter(
                "circuit_breaker_opened_total", "Times the model's circuit breaker opened.",
                key=None, read=lambda: breaker.state()["opened_total"])
            self.metrics.gauge(None, key="circuit", read=breaker.state)

    rate_limited_total = property(lambda self: self.rate_limited.value)
    shed_total = property(lambda self: self.shed.value)
    retries_total = property(lambda self: self.retries.value)

    @property
    def key(self) -> str:
        """Stable identifier used in metrics labels and health payloads."""
        if self.version is None:
            return self.name
        return f"{self.name}@v{self.version:04d}"


class ModelRouter:
    """Routes requests to per-model pools with multi-tenant hardening.

    Parameters
    ----------
    pool_factory:
        Builds an (unstarted) pool — anything with the
        ``ReplicaPool``/``ShardProcessPool`` surface — from an artifact
        directory.  The router starts and stops what the factory builds.
    registry:
        Optional registry for on-demand loading; without it only pinned
        models are served.
    max_models:
        Cap on *registry-loaded* models resident at once (pinned models
        don't count); the least-recently-used entry is evicted past it.
    rate_rps, rate_burst:
        Per-``(model, tenant)`` token-bucket parameters;
        ``rate_rps=None`` disables rate limiting.
    breaker_failures, breaker_window_s, breaker_reset_s:
        Per-model circuit breaker; ``breaker_failures=None`` disables it.
    retries, retry_backoff_s:
        Bounded retry for transient shard crashes: up to ``retries``
        re-attempts with jittered exponential backoff starting at
        ``retry_backoff_s``.
    sleep, rng:
        Injectable backoff primitives (tests pass fakes).
    """

    def __init__(self, pool_factory: Optional[PoolFactory] = None, *,
                 registry: Optional[ArtifactRegistry] = None,
                 max_models: int = 4,
                 rate_rps: Optional[float] = None,
                 rate_burst: Optional[float] = None,
                 breaker_failures: Optional[int] = 5,
                 breaker_window_s: float = 30.0,
                 breaker_reset_s: float = 5.0,
                 retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None) -> None:
        if max_models < 1:
            raise ValueError(f"max_models must be >= 1, got {max_models}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if registry is not None and pool_factory is None:
            raise ValueError(
                "a registry-backed router needs a pool_factory to load "
                "artifacts with"
            )
        self.pool_factory = pool_factory
        self.registry = registry
        self.max_models = int(max_models)
        # Checked here, not by the first request's bucket or breaker: a bad
        # limit is the server's misconfiguration, not the client's.
        self.rate_rps = None if rate_rps is None else check_positive(rate_rps, "rate_rps")
        self.rate_burst = None if rate_burst is None else check_burst(rate_burst, "rate_burst")
        self.breaker_failures = (None if breaker_failures is None else
                                 check_positive_int(breaker_failures, "breaker_failures"))
        self.breaker_window_s = check_positive(breaker_window_s, "breaker_window_s")
        self.breaker_reset_s = check_positive(breaker_reset_s, "breaker_reset_s")
        self.retries = int(retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.RLock()
        self._pinned: Dict[str, _ModelEntry] = {}
        # Registry-loaded entries keyed (name, version); OrderedDict order
        # IS the LRU order (most recently used last).
        self._loaded: "OrderedDict[Tuple[str, int], _ModelEntry]" = OrderedDict()
        # Keys being loaded right now: pool build/start runs outside the
        # router lock, and concurrent requesters for the same key wait on
        # the per-key event instead of stalling every model's traffic.
        self._loading: Dict[Tuple[str, int], threading.Event] = {}
        self._closed = False
        #: Router-wide metrics, exported unlabelled on ``/v1/metrics``.
        self.metrics = MetricsRegistry(METRIC_PREFIX)
        self.evictions = self.metrics.counter(
            "evictions_total", "Registry-loaded models evicted least-recently-used.")

    evictions_total = property(lambda self: self.evictions.value)

    # -- model table ---------------------------------------------------------

    def _make_breaker(self) -> Optional[CircuitBreaker]:
        if self.breaker_failures is None:
            return None
        return CircuitBreaker(failure_threshold=self.breaker_failures,
                              window_s=self.breaker_window_s,
                              reset_s=self.breaker_reset_s)

    def add_model(self, name: str, artifact_dir, *,
                  version: Optional[int] = None) -> None:
        """Pin ``name`` to ``artifact_dir``: loaded now, never evicted."""
        if self.pool_factory is None:
            raise RuntimeError(
                "this router has no pool_factory; use add_pool() with a "
                "pre-built pool instead"
            )
        with self._lock:
            if self._closed:
                raise RuntimeError("router is stopped")
            if name in self._pinned:
                raise ValueError(f"model {name!r} is already pinned")
            pool = self.pool_factory(str(artifact_dir))
            pool.start()
            self._pinned[name] = _ModelEntry(
                name, version, pool, self._make_breaker(), pinned=True
            )
        _log.info("model_pinned", model=name,
                  artifact_dir=str(artifact_dir))

    def add_pool(self, name: str, pool, *,
                 version: Optional[int] = None) -> None:
        """Pin an already-built pool as ``name`` (started by :meth:`start`)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("router is stopped")
            if name in self._pinned:
                raise ValueError(f"model {name!r} is already pinned")
            self._pinned[name] = _ModelEntry(
                name, version, pool, self._make_breaker(), pinned=True
            )
        _log.info("model_pinned", model=name)

    @property
    def default_model(self) -> Optional[str]:
        """The first pinned model, else the first loaded (``/v1/healthz``)."""
        with self._lock:
            for name in self._pinned:
                return name
            for name, _version in self._loaded:
                return name
        return None

    def start(self) -> "ModelRouter":
        """Start every resident pool (idempotent, like the pools)."""
        for entry in self.entries():
            entry.pool.start()
        return self

    def resolve(self, name: str, version=None) -> _ModelEntry:
        """The entry serving ``name`` (``version`` or latest), loading it
        from the registry — and evicting the LRU entry — if needed.

        Loading is slow (a process-sharded pool blocks until every shard
        has the artifact in memory), so it runs *outside* the router lock:
        the key is reserved under the lock, the pool is built and started
        unlocked, and the finished entry is published under the lock again.
        Concurrent requesters for the same key wait on a per-key event; a
        cold load of one model never stalls traffic to the others.
        """
        wanted = parse_version(version) if version is not None else None
        while True:
            with self._lock:
                if self._closed:
                    raise ApiError(CODE_SHUTTING_DOWN,
                                   "server is shutting down")
                pinned = self._pinned.get(name)
                if pinned is not None and (wanted is None
                                           or pinned.version == wanted):
                    return pinned
                if self.registry is None:
                    raise ModelNotFoundError(
                        f"no model named {name!r}"
                        + (f" at version v{wanted}" if wanted else ""),
                        detail={"model": name,
                                "loaded": sorted(self._pinned)},
                    )
                try:
                    path = self.registry.path_of(name, wanted)
                except (ArtifactError, ValueError) as error:
                    raise ModelNotFoundError(str(error),
                                             detail={"model": name}) from None
                resolved = wanted if wanted is not None \
                    else self.registry.latest_version(name)
                key = (name, resolved)
                entry = self._loaded.get(key)
                if entry is not None:
                    self._loaded.move_to_end(key)
                    return entry
                loading = self._loading.get(key)
                if loading is None:
                    loading = threading.Event()
                    self._loading[key] = loading
                    break
            # Another thread is loading this key: wait off-lock, then
            # re-check the table (the load may also have failed).
            loading.wait()
        try:
            pool = self.pool_factory(str(path))
            pool.start()
        except BaseException:
            with self._lock:
                self._loading.pop(key, None)
            loading.set()
            raise
        evicted = []
        with self._lock:
            self._loading.pop(key, None)
            closed = self._closed
            if not closed:
                entry = _ModelEntry(name, resolved, pool,
                                    self._make_breaker(), pinned=False)
                self._loaded[key] = entry
                while len(self._loaded) > self.max_models:
                    _, victim = self._loaded.popitem(last=False)
                    evicted.append(victim)
                    self.evictions.inc()
        loading.set()
        if closed:
            # The router stopped while we were loading; this pool was
            # never published, so stop() could not have reached it.
            pool.stop(timeout=5.0, cancel_pending=True)
            raise ApiError(CODE_SHUTTING_DOWN, "server is shutting down")
        _log.info("model_loaded", model=name, version=resolved,
                  resident=len(self._loaded))
        for victim in evicted:
            victim.pool.stop(timeout=5.0, cancel_pending=True)
            _log.info("model_evicted", model=victim.name,
                      version=victim.version)
        return entry

    def entry_if_loaded(self, name: str,
                        version=None) -> Optional[_ModelEntry]:
        """The resident entry for ``name`` (no loading side effects)."""
        wanted = parse_version(version) if version is not None else None
        with self._lock:
            pinned = self._pinned.get(name)
            if pinned is not None and (wanted is None
                                       or pinned.version == wanted):
                return pinned
            if wanted is not None:
                return self._loaded.get((name, wanted))
            candidates = [entry for (key_name, _), entry
                          in self._loaded.items() if key_name == name]
            if not candidates:
                return None
            return max(candidates, key=lambda entry: entry.version or 0)

    def entries(self) -> List[_ModelEntry]:
        """Every resident entry (pinned first), for metrics export."""
        with self._lock:
            return list(self._pinned.values()) + list(self._loaded.values())

    def list_models(self) -> List[dict]:
        """The model catalogue: resident models plus the registry listing."""
        catalogue: "OrderedDict[str, dict]" = OrderedDict()
        with self._lock:
            for name, entry in sorted(self._pinned.items()):
                catalogue[name] = {
                    "name": name,
                    "pinned": True,
                    "loaded_versions": [entry.version],
                    "registry_versions": [],
                }
            for (name, resolved), _entry in self._loaded.items():
                record = catalogue.setdefault(name, {
                    "name": name, "pinned": False,
                    "loaded_versions": [], "registry_versions": [],
                })
                record["loaded_versions"].append(resolved)
        if self.registry is not None:
            for name, versions in self.registry.list_artifacts():
                record = catalogue.setdefault(name, {
                    "name": name, "pinned": False,
                    "loaded_versions": [], "registry_versions": [],
                })
                record["registry_versions"] = versions
        for record in catalogue.values():
            record["loaded_versions"] = sorted(
                v for v in record["loaded_versions"] if v is not None
            ) or record["loaded_versions"]
        return list(catalogue.values())

    # -- request path --------------------------------------------------------

    def _bucket(self, entry: _ModelEntry, tenant: str) -> Optional[TokenBucket]:
        if self.rate_rps is None:
            return None
        with entry.bucket_lock:
            bucket = entry.buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.rate_rps, self.rate_burst)
                entry.buckets[tenant] = bucket
            return bucket

    def predict(self, name: str, image: np.ndarray,
                seed: Optional[int] = None, *, version=None,
                tenant: str = DEFAULT_TENANT,
                timeout: Optional[float] = None) -> PredictResult:
        """One hardened prediction: limit, shed, retry, account.

        Raises :class:`ApiError` subclasses for routing-layer rejections;
        pool-level ``ValueError`` (bad image) and future timeouts propagate
        unchanged so the HTTP layer maps them exactly as before.
        """
        entry = self.resolve(name, version)
        return self.predict_entry(entry, image, seed=seed, tenant=tenant,
                                  timeout=timeout)

    def predict_entry(self, entry: _ModelEntry, image: np.ndarray,
                      seed: Optional[int] = None, *,
                      tenant: str = DEFAULT_TENANT,
                      timeout: Optional[float] = None) -> PredictResult:
        """The hardened request path against an already-resolved entry."""
        bucket = self._bucket(entry, tenant)
        if bucket is not None and not bucket.try_acquire():
            entry.rate_limited.inc()
            raise RateLimitedError(
                f"tenant {tenant!r} exceeded {self.rate_rps:g} requests/s "
                f"for model {entry.key!r}",
                retry_after_s=bucket.retry_after(),
                detail={"model": entry.key, "tenant": tenant,
                        "rate_rps": self.rate_rps},
            )
        breaker = entry.breaker
        if breaker is not None and not breaker.allow():
            entry.shed.inc()
            raise CircuitOpenError(
                f"model {entry.key!r} is shedding load "
                "(circuit breaker open)",
                retry_after_s=breaker.retry_after(),
                detail={"model": entry.key, **breaker.state()},
            )
        last_crash: Optional[ShardCrashedError] = None
        # Every breaker.allow() that admitted us may have taken a half-open
        # probe slot; exactly one of record_success / record_failure /
        # release_probe must run, or the slot leaks and the model sheds
        # all traffic forever.  Outcomes that say nothing about model
        # health (bad input, backpressure, timeout, cancellation) release
        # the slot in the finally below.
        verdict_recorded = breaker is None
        try:
            for attempt in range(self.retries + 1):
                try:
                    result = entry.pool.predict(image, seed=seed,
                                                timeout=timeout)
                except ShardCrashedError as error:
                    last_crash = error
                    if breaker is not None:
                        breaker.record_failure()
                        verdict_recorded = True
                    if attempt < self.retries:
                        entry.retries.inc()
                        backoff = self.retry_backoff_s * (2 ** attempt)
                        self._sleep(backoff * (0.5 + self._rng.random()))
                        continue
                except QueueFullError as error:
                    # Backpressure is health, not failure: 429 the caller,
                    # leave the breaker alone.
                    raise ApiError(
                        CODE_QUEUE_FULL, str(error), retry_after_s=1.0,
                        detail={"model": entry.key,
                                "queue_depth": entry.pool.queue_depth},
                    ) from None
                except QueueClosedError as error:
                    # A closed queue on a live router means *this model*
                    # was evicted/stopped, not that the server is going
                    # down — tell the client to retry, not to disconnect.
                    if self._closed:
                        raise ApiError(CODE_SHUTTING_DOWN,
                                       str(error)) from None
                    raise ApiError(
                        CODE_UPSTREAM_FAILURE,
                        f"model {entry.key!r} was unloaded mid-request; "
                        "retry",
                        retry_after_s=1.0, detail={"model": entry.key},
                    ) from None
                except CancelledError:
                    if self._closed:
                        raise
                    raise ApiError(
                        CODE_UPSTREAM_FAILURE,
                        f"model {entry.key!r} was unloaded mid-request; "
                        "retry",
                        retry_after_s=1.0, detail={"model": entry.key},
                    ) from None
                except ValueError:
                    raise
                except RuntimeError as error:
                    # The model itself failed on a live worker — count it
                    # and surface it; retrying identical input is
                    # pointless.
                    if breaker is not None:
                        breaker.record_failure()
                        verdict_recorded = True
                    raise ApiError(
                        CODE_UPSTREAM_FAILURE,
                        f"model {entry.key!r} failed: {error}",
                        detail={"model": entry.key},
                    ) from error
                else:
                    if breaker is not None:
                        breaker.record_success()
                        verdict_recorded = True
                    return result
        finally:
            if not verdict_recorded:
                breaker.release_probe()
        _log.error("shard_retries_exhausted", model=entry.key,
                   retries=self.retries, error=str(last_crash))
        raise ApiError(
            CODE_UPSTREAM_FAILURE,
            f"model {entry.key!r} unavailable after {self.retries + 1} "
            f"attempts: {last_crash}",
            detail={"model": entry.key, "attempts": self.retries + 1},
        ) from last_crash

    # -- health / metrics ----------------------------------------------------

    def health(self, name: str, version=None) -> dict:
        """Health payload for one model (loads nothing).

        ``status`` is ``"ok"`` for a resident model with a closed breaker,
        ``"shedding"`` when the breaker is open/half-open, ``"unloaded"``
        for a registry model not currently resident.
        """
        entry = self.entry_if_loaded(name, version)
        if entry is None:
            if self.registry is not None and self.registry.versions(name):
                return {"status": "unloaded", "model": name,
                        "registry_versions": self.registry.versions(name)}
            raise ModelNotFoundError(f"no model named {name!r}",
                                     detail={"model": name})
        payload = {
            "status": "ok",
            "model": entry.name,
            "version": entry.version,
            "pinned": entry.pinned,
            "n_input": entry.pool.n_input,
            "backend": entry.pool.backend_name,
            "workers": entry.pool.workers,
            "queue_depth": entry.pool.queue_depth,
            "max_batch": entry.pool.batcher.max_batch,
            "max_wait_ms": entry.pool.batcher.max_wait_ms,
            **entry.metrics.snapshot(),  # hardening counters and circuit
        }
        if entry.breaker is not None and entry.breaker.state_name != "closed":
            payload["status"] = "shedding"
        shards = getattr(entry.pool, "shard_pids", None)
        if shards is not None:
            payload["shard_pids"] = shards()
        return payload

    def metrics_snapshots(self) -> "OrderedDict[str, dict]":
        """Per-model metrics snapshots keyed by entry key: each model's pool
        and entry metrics (``/v1/metrics.json``)."""
        return OrderedDict(
            (entry.key, {**entry.pool.metrics_snapshot(), **entry.metrics.snapshot()})
            for entry in self.entries()
        )

    def metrics_registries(self) -> List[Tuple[MetricsRegistry, Optional[Dict[str, str]]]]:
        """Every registry behind ``/v1/metrics`` with its base labels: each
        model's pool and entry metrics under its ``model`` label, then the
        router's own metrics unlabelled."""
        parts = [(registry, {"model": entry.key}) for entry in self.entries()
                 for registry in (entry.pool.metrics, entry.metrics)]
        return parts + [(self.metrics, None)]

    # -- lifecycle -----------------------------------------------------------

    def stop(self, timeout: float = 10.0) -> None:
        """Stop every resident pool; the router is unusable afterwards."""
        with self._lock:
            self._closed = True
            entries = list(self._pinned.values()) + list(self._loaded.values())
            self._pinned.clear()
            self._loaded.clear()
        for entry in entries:
            entry.pool.stop(timeout=timeout, cancel_pending=True)

    def __enter__(self) -> "ModelRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

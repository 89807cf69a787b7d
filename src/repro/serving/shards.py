"""Process-sharded replica pool: crash-isolated workers behind one queue.

:class:`ShardProcessPool` is the multi-core sibling of
:class:`~repro.serving.pool.ReplicaPool`.  It keeps the same front half —
one :class:`~repro.serving.batcher.MicroBatcher` fed by :meth:`submit`,
futures resolved per request — but each worker is an OS **process**
(``spawn`` start method, the same crash-isolation machinery as
:mod:`repro.runner.scheduler`) owning an independent model replica rebuilt
from the artifact directory.  The pure-Python simulation engine holds the
GIL between numpy calls, which caps a thread pool at roughly one core;
process shards sidestep the GIL entirely, so throughput scales with cores.

Per shard, a parent-side *dispatcher thread* claims micro-batches from the
shared queue and round-trips them over a duplex pipe to its worker process.
The dispatcher is also the supervisor: a shard that dies mid-batch (killed,
segfaulted, OOM) or exceeds the batch deadline is detected on the spot,
**respawned without dropping the listener**, and the interrupted batch is
retried once on the fresh process before any caller sees a
:class:`~repro.serving.errors.ShardCrashedError` — which the router treats
as transient and retries with backoff anyway.

Every executed batch is appended to the ledger with its shard index, and
spawn/crash/respawn transitions are recorded as ``serving_shard`` entries,
so a deployment's churn is auditable after the fact.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.observability.ledger import (
    KIND_SERVING_BATCH,
    KIND_SERVING_SHARD,
    RunLedger,
    artifact_lineage,
)
from repro.observability.structlog import configure_from_env, get_struct_logger
from repro.observability.tracing import TraceContext, record_span
from repro.serving.artifacts import ModelArtifact, load_artifact
from repro.serving.batcher import MicroBatcher, PendingRequest
from repro.serving.drift import SpikeCountDriftDetector
from repro.serving.errors import ShardCrashedError
from repro.serving.inference import PredictionService, PredictRequest, PredictResult
from repro.serving.metrics import ServingMetrics
from repro.utils.validation import check_positive_int

_log = get_struct_logger("serving.shards")

#: Seconds a freshly spawned shard gets to load its artifact and report ready.
DEFAULT_SPAWN_TIMEOUT_S = 120.0

#: Wall-clock budget of one micro-batch round-trip before the shard is
#: declared hung, killed, and respawned.
DEFAULT_BATCH_TIMEOUT_S = 120.0

#: Poll granularity of the dispatcher's pipe wait.
_POLL_S = 0.1


def _shard_main(artifact_dir: str, backend: Optional[str],
                conn: "multiprocessing.connection.Connection",
                shard_index: int, ledger_root: Optional[str] = None) -> None:
    """Worker-process entry point: load the artifact, answer predict RPCs.

    Protocol (parent -> child / child -> parent), one message per batch:

    * ``("predict", [(image, seed, trace), ...])`` -> ``("ok", [result,
      ...])`` or ``("error", "message")`` — a raising batch reports instead
      of dying.  ``trace`` is the request's serialized
      :class:`~repro.observability.tracing.TraceContext` (``None`` when the
      request is untraced);
    * ``("stop",)`` -> the child exits cleanly (no reply).

    On start the child sends one ``("ready", info)`` message after the model
    is rebuilt, so the parent can distinguish a slow load from a crash.
    ``ledger_root`` points the worker at the parent's ledger directory so
    worker-side spans (``shard_batch``, ``encode``, ``kernel``) land in the
    same trace store as the parent's.
    """
    configure_from_env()
    log = get_struct_logger("serving.shard").bind(shard=shard_index)
    try:
        artifact = load_artifact(artifact_dir)
        model = artifact.build_model(backend=backend)
        span_ledger = RunLedger(ledger_root) if ledger_root else None
        service = PredictionService(model, span_sink=span_ledger)
    except BaseException as error:  # noqa: BLE001 - reported to the parent
        try:
            conn.send(("failed", f"{type(error).__name__}: {error}"))
        finally:
            conn.close()
        return
    conn.send(("ready", {
        "model": model.name,
        "backend": model.backend_name,
        "n_input": service.n_input,
    }))
    log.info("shard_ready", model=model.name, backend=model.backend_name)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            conn.close()
            return
        if message[0] != "predict":  # pragma: no cover - protocol guard
            conn.send(("error", f"unknown message {message[0]!r}"))
            continue
        requests = []
        for image, seed, trace in message[1]:
            request = PredictRequest(image=np.asarray(image, dtype=float),
                                     seed=seed)
            if trace is not None and span_ledger is not None:
                # Child of the parent-side shard_rpc span: the worker's
                # whole batch phase, under which encode/kernel nest.
                request.trace = TraceContext.from_dict(trace).child()
            requests.append(request)
        batch_started = time.perf_counter()
        try:
            results = service.predict_batch(requests)
        except Exception as error:  # noqa: BLE001 - fanned back to callers
            conn.send(("error", f"{type(error).__name__}: {error}"))
            continue
        batch_s = time.perf_counter() - batch_started
        for request in requests:
            if request.trace is not None:
                record_span(span_ledger, request.trace, "shard_batch",
                            batch_s, shard=shard_index,
                            batch_size=len(requests))
        conn.send(("ok", [
            (r.prediction, r.seed, r.spike_count, r.scores) for r in results
        ]))


class _ShardHandle:
    """Parent-side view of one live shard process."""

    def __init__(self, index: int,
                 process: multiprocessing.process.BaseProcess,
                 conn: "multiprocessing.connection.Connection") -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.batches = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join()
        else:
            self.process.join()


class ShardProcessPool:
    """Micro-batching inference pool sharded across worker processes.

    Drop-in for :class:`~repro.serving.pool.ReplicaPool` everywhere the
    serving stack cares (``submit`` / ``predict`` / ``metrics_snapshot`` /
    ``n_input`` / ``model_name`` / ``backend_name`` / lifecycle), with the
    worker threads replaced by supervised worker processes.

    Parameters
    ----------
    artifact_dir:
        The artifact directory every shard rebuilds its replica from (the
        path crosses the process boundary, not the model).
    shards:
        Number of worker processes.
    backend:
        Compute-backend override for every shard (default: the artifact's).
    max_batch, max_wait_ms, max_queue:
        Micro-batcher knobs, identical to :class:`ReplicaPool`.
    spawn_timeout_s, batch_timeout_s:
        Supervision budgets: artifact-load deadline per spawn, round-trip
        deadline per batch (a shard past it is killed and respawned).
    metrics, drift_detector, ledger, lineage:
        As on :class:`ReplicaPool`; ledger entries additionally carry the
        shard index, and shard lifecycle transitions are recorded as
        ``serving_shard`` entries.
    """

    def __init__(self, artifact_dir, shards: int = 2, *,
                 backend: Optional[str] = None, max_batch: int = 32,
                 max_wait_ms: float = 5.0, max_queue: int = 1024,
                 spawn_timeout_s: float = DEFAULT_SPAWN_TIMEOUT_S,
                 batch_timeout_s: float = DEFAULT_BATCH_TIMEOUT_S,
                 metrics: Optional[ServingMetrics] = None,
                 drift_detector: Optional[SpikeCountDriftDetector] = None,
                 ledger: Optional[RunLedger] = None,
                 lineage: Optional[dict] = None) -> None:
        self.artifact_dir = str(artifact_dir)
        self.shards = check_positive_int(shards, "shards")
        self.backend = backend
        # Validates the artifact in the parent at construction time, so a
        # broken path fails fast instead of inside the first spawn.
        self.artifact: ModelArtifact = load_artifact(self.artifact_dir)
        self.batcher = MicroBatcher(max_batch=max_batch,
                                    max_wait_ms=max_wait_ms,
                                    max_queue=max_queue)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.batch_timeout_s = float(batch_timeout_s)
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.drift_detector = drift_detector
        self.ledger = ledger
        self.lineage = dict(lineage) if lineage is not None \
            else artifact_lineage(self.artifact)
        if backend is not None:
            self.lineage["backend"] = backend
        self._context = multiprocessing.get_context("spawn")
        self._handles: List[Optional[_ShardHandle]] = [None] * self.shards
        self._threads: List[threading.Thread] = []
        self._respawns_total = 0
        self._started = False
        self._lock = threading.Lock()

    @classmethod
    def from_artifact(cls, artifact: ModelArtifact, shards: int = 2,
                      **kwargs) -> "ShardProcessPool":
        """Pool sharding ``artifact`` — mirrors ``ReplicaPool.from_artifact``.

        The artifact must still exist on disk at ``artifact.path``: unlike
        the thread pool, shard processes rebuild their replicas from the
        directory, not from the in-memory arrays.
        """
        return cls(artifact.path, shards, **kwargs)

    # -- introspection -------------------------------------------------------

    @property
    def workers(self) -> int:
        """Worker count (= shards), for API parity with ``ReplicaPool``."""
        return self.shards

    @property
    def n_input(self) -> int:
        return self.artifact.n_input

    @property
    def model_name(self) -> str:
        return self.artifact.model_name

    @property
    def backend_name(self) -> str:
        return self.backend if self.backend is not None else self.artifact.backend

    @property
    def queue_depth(self) -> int:
        return self.batcher.depth

    @property
    def running(self) -> bool:
        with self._lock:
            return self._started

    @property
    def respawns_total(self) -> int:
        with self._lock:
            return self._respawns_total

    def shard_pids(self) -> List[Optional[int]]:
        """PID of every shard (``None`` for a currently-dead slot)."""
        with self._lock:
            return [handle.pid if handle is not None and handle.alive else None
                    for handle in self._handles]

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ShardProcessPool":
        """Spawn every shard, wait until all report ready, start dispatch.

        Like :class:`ReplicaPool`, a stopped pool cannot be restarted —
        build a fresh one.
        """
        if self.batcher.closed:
            raise RuntimeError(
                "this pool has been stopped and cannot be restarted; "
                "build a new ShardProcessPool"
            )
        with self._lock:
            if self._started:
                return self
            self._started = True
        # Spawn all shards first, then wait for readiness — the expensive
        # interpreter start-ups overlap instead of serializing.
        spawned = [self._spawn(index) for index in range(self.shards)]
        try:
            for index, handle in enumerate(spawned):
                self._await_ready(handle)
                with self._lock:
                    self._handles[index] = handle
        except ShardCrashedError:
            # The pool never started: leave no shard behind, and close the
            # queue so later submits fail fast instead of waiting forever.
            for handle in spawned:
                handle.kill()
            self.batcher.close(cancel_pending=True)
            raise
        for index in range(self.shards):
            thread = threading.Thread(
                target=self._dispatch_loop, args=(index,),
                name=f"repro-shard-dispatch-{index}", daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        _log.info("shard_pool_started", shards=self.shards,
                  model=self.model_name, backend=self.backend_name,
                  max_batch=self.batcher.max_batch)
        return self

    def stop(self, timeout: float = 10.0, cancel_pending: bool = False) -> None:
        """Close the queue, stop the dispatchers, shut every shard down."""
        self.batcher.close(cancel_pending=cancel_pending)
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()
        with self._lock:
            handles, self._handles = self._handles, [None] * self.shards
            self._started = False
        for handle in handles:
            if handle is None:
                continue
            try:
                handle.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
            handle.process.join(2.0)
            handle.kill()
            self._ledger_shard("stopped", handle.index, handle.pid)

    def __enter__(self) -> "ShardProcessPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request path --------------------------------------------------------

    def submit(self, image: np.ndarray, seed: Optional[int] = None) -> Future:
        """Enqueue one request (same contract as ``ReplicaPool.submit``)."""
        image = np.asarray(image, dtype=float)
        if image.size != self.n_input:
            self.metrics.record_rejected()
            raise ValueError(
                f"image has {image.size} pixels but the model expects "
                f"{self.n_input}"
            )
        if np.any(image < 0):
            self.metrics.record_rejected()
            raise ValueError("image intensities must be non-negative")
        request = PredictRequest(image=image, seed=seed)
        try:
            future = self.batcher.submit(request)
        except Exception:
            self.metrics.record_rejected()
            raise
        self.metrics.record_request()
        return future

    def predict(self, image: np.ndarray, seed: Optional[int] = None,
                timeout: Optional[float] = None) -> PredictResult:
        """Synchronous wrapper around :meth:`submit` (cancels on timeout)."""
        future = self.submit(image, seed=seed)
        try:
            return future.result(timeout)
        except FutureTimeoutError:
            future.cancel()
            raise

    def metrics_snapshot(self) -> dict:
        """Pool metrics plus the shard-supervision section."""
        drift = (self.drift_detector.state()
                 if self.drift_detector is not None else None)
        snapshot = self.metrics.snapshot(queue_depth=self.queue_depth,
                                         drift=drift)
        snapshot["backend"] = self.backend_name
        snapshot["model"] = self.model_name
        with self._lock:
            snapshot["shards"] = {
                "count": self.shards,
                "alive": sum(1 for handle in self._handles
                             if handle is not None and handle.alive),
                "respawns_total": self._respawns_total,
                "batches_by_shard": {
                    str(index): handle.batches
                    for index, handle in enumerate(self._handles)
                    if handle is not None
                },
            }
        return snapshot

    # -- supervision ---------------------------------------------------------

    def _spawn(self, index: int) -> _ShardHandle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        ledger_root = str(self.ledger.root) if self.ledger is not None else None
        process = self._context.Process(
            target=_shard_main,
            args=(self.artifact_dir, self.backend, child_conn, index,
                  ledger_root),
            name=f"repro-shard-{index}", daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _ShardHandle(index, process, parent_conn)
        self._ledger_shard("spawned", index, process.pid)
        _log.info("shard_spawned", shard=index, pid=process.pid)
        return handle

    def _await_ready(self, handle: _ShardHandle) -> None:
        deadline = time.monotonic() + self.spawn_timeout_s
        try:
            while not handle.conn.poll(_POLL_S):
                if time.monotonic() > deadline:
                    handle.kill()
                    raise ShardCrashedError(
                        f"shard {handle.index} did not become ready within "
                        f"{self.spawn_timeout_s:.0f} s"
                    )
                if not handle.alive:
                    handle.kill()
                    raise ShardCrashedError(
                        f"shard {handle.index} died during start-up "
                        f"(exitcode {handle.process.exitcode})"
                    )
            message = handle.conn.recv()
        except (EOFError, OSError) as error:
            # The parent closed its copy of the child's end, so a shard that
            # dies before ``ready`` makes poll() report EOF as readable.
            handle.kill()
            raise ShardCrashedError(
                f"shard {handle.index} died during start-up "
                f"(exitcode {handle.process.exitcode}): {error!r}"
            ) from error
        if message[0] != "ready":
            handle.kill()
            raise ShardCrashedError(
                f"shard {handle.index} failed to load the artifact: "
                f"{message[1] if len(message) > 1 else message[0]}"
            )

    def _respawn(self, index: int, dead: Optional[_ShardHandle]
                 ) -> _ShardHandle:
        if dead is not None:
            self._ledger_shard("crashed", index, dead.pid)
            _log.warning("shard_crashed", shard=index, pid=dead.pid)
            dead.kill()
        handle = self._spawn(index)
        self._await_ready(handle)
        with self._lock:
            self._handles[index] = handle
            self._respawns_total += 1
        self._ledger_shard("respawned", index, handle.pid)
        _log.info("shard_respawned", shard=index, pid=handle.pid)
        return handle

    def _retire(self, index: int, handle: _ShardHandle) -> None:
        """Ledger a mid-batch death and reap the dead process.

        Nulling the table slot without retiring the handle would lose it:
        the retrying attempt would respawn with ``dead=None``, the crash
        would never reach the ledger, and the dead process would never be
        joined.
        """
        with self._lock:
            if self._handles[index] is handle:
                self._handles[index] = None
        self._ledger_shard("crashed", index, handle.pid)
        _log.warning("shard_crashed", shard=index, pid=handle.pid)
        handle.kill()

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self, index: int) -> None:
        """Per-shard supervisor: claim batches, round-trip them, recover.

        The loop only exits when the batcher is closed and drained; a shard
        crash never takes the dispatcher (and therefore the listener) down.
        """
        while True:
            batch = self.batcher.next_batch(timeout=_POLL_S)
            if batch is None:
                return
            if not batch:
                continue
            self._serve_batch(index, batch)

    def _serve_batch(self, index: int,
                     batch: Sequence[PendingRequest]) -> None:
        started = time.perf_counter()
        traced = self.ledger is not None and any(
            pending.trace is not None for pending in batch
        )
        if traced:
            for pending in batch:
                if pending.trace is not None:
                    record_span(self.ledger, pending.trace.child(),
                                "queue_wait", started - pending.enqueued_at,
                                shard=index, batch_size=len(batch))
        payload = None
        if not traced:
            payload = [(pending.request.image, pending.request.seed, None)
                       for pending in batch]
        reply = None
        # One transparent retry on a fresh process: a batch interrupted by a
        # crash is usually served successfully by the respawned shard, so
        # callers only see ShardCrashedError when the failure repeats.
        for attempt in (0, 1):
            with self._lock:
                handle = self._handles[index]
            try:
                if handle is None or not handle.alive:
                    handle = self._respawn(index, handle)
            except ShardCrashedError as error:
                # The *replacement* failed to come up (the old death, if
                # any, was already ledgered by _respawn).
                with self._lock:
                    self._handles[index] = None
                if attempt == 1:
                    self._fail_batch(batch, error, started, index)
                    return
                continue
            rpc_ctxs = None
            if traced:
                # Fresh span ids per attempt: a retried RPC is a *second*
                # span of the same trace, flagged retry=1 — the worker
                # inherits the flag, so its spans mark the retry too.
                rpc_ctxs = [
                    pending.trace.child(retry=attempt)
                    if pending.trace is not None else None
                    for pending in batch
                ]
                payload = [
                    (pending.request.image, pending.request.seed,
                     ctx.to_dict() if ctx is not None else None)
                    for pending, ctx in zip(batch, rpc_ctxs)
                ]
            rpc_started = time.perf_counter()
            try:
                handle.conn.send(("predict", payload))
                reply = self._recv_reply(handle)
                self._record_rpc(rpc_ctxs, index, len(batch),
                                 time.perf_counter() - rpc_started)
                break
            except ShardCrashedError as error:
                self._record_rpc(rpc_ctxs, index, len(batch),
                                 time.perf_counter() - rpc_started,
                                 error=str(error))
                self._retire(index, handle)
                if attempt == 1:
                    self._fail_batch(batch, error, started, index)
                    return
            except (OSError, EOFError, BrokenPipeError) as error:
                self._record_rpc(rpc_ctxs, index, len(batch),
                                 time.perf_counter() - rpc_started,
                                 error=str(error))
                self._retire(index, handle)
                if attempt == 1:
                    self._fail_batch(
                        batch,
                        ShardCrashedError(
                            f"shard {index} died mid-batch ({error})"
                        ),
                        started, index,
                    )
                    return
        if reply is None:  # pragma: no cover - loop always breaks or returns
            return
        if reply[0] == "error":
            error = RuntimeError(reply[1])
            for pending in batch:
                _resolve(pending.future, error=error)
            self.metrics.record_errors(len(batch))
            _log.error("shard_batch_failed", shard=index, size=len(batch),
                       error=reply[1])
            self._ledger_batch(index, len(batch), [], outcome="error",
                               error=reply[1])
            return
        finished = time.perf_counter()
        results = [
            PredictResult(prediction=int(prediction), seed=int(seed),
                          spike_count=float(spike_count),
                          scores=np.asarray(scores))
            for prediction, seed, spike_count, scores in reply[1]
        ]
        for pending, result in zip(batch, results):
            _resolve(pending.future, result=result)
        handle.batches += 1
        latencies = [finished - pending.enqueued_at for pending in batch]
        self.metrics.record_batch(len(batch), latencies)
        self._ledger_batch(index, len(batch), latencies, outcome="ok")
        if self.drift_detector is not None:
            for result in results:
                self.drift_detector.observe(result.spike_count)

    def _record_rpc(self, rpc_ctxs, shard: int, size: int,
                    duration_s: float, error: Optional[str] = None) -> None:
        """One ``shard_rpc`` span per traced request of the attempt."""
        if not rpc_ctxs:
            return
        fields: Dict[str, object] = {"shard": int(shard),
                                     "batch_size": int(size)}
        if error is not None:
            fields["error"] = error
        for ctx in rpc_ctxs:
            if ctx is not None:
                record_span(self.ledger, ctx, "shard_rpc", duration_s,
                            **fields)

    def _recv_reply(self, handle: _ShardHandle):
        deadline = time.monotonic() + self.batch_timeout_s
        while not handle.conn.poll(_POLL_S):
            if not handle.alive:
                raise ShardCrashedError(
                    f"shard {handle.index} died mid-batch "
                    f"(exitcode {handle.process.exitcode})"
                )
            if time.monotonic() > deadline:
                handle.kill()
                raise ShardCrashedError(
                    f"shard {handle.index} exceeded the "
                    f"{self.batch_timeout_s:.0f} s batch deadline and was "
                    "killed"
                )
        return handle.conn.recv()

    def _fail_batch(self, batch: Sequence[PendingRequest],
                    error: Exception, started: float, index: int) -> None:
        for pending in batch:
            _resolve(pending.future, error=error)
        self.metrics.record_errors(len(batch))
        _log.error("shard_batch_lost", shard=index, size=len(batch),
                   error=str(error))
        self._ledger_batch(index, len(batch), [], outcome="crashed",
                           error=str(error))

    # -- ledger --------------------------------------------------------------

    def _ledger_batch(self, shard: int, size: int,
                      latencies_s: Sequence[float], outcome: str,
                      error: Optional[str] = None) -> None:
        if self.ledger is None:
            return
        entry: Dict[str, object] = {
            "kind": KIND_SERVING_BATCH,
            "outcome": outcome,
            "batch_size": int(size),
            "backend": self.backend_name,
            "model": self.model_name,
            "shard": int(shard),
        }
        entry.update(self.lineage)
        if latencies_s:
            entry["latency_mean_ms"] = round(
                1000.0 * sum(latencies_s) / len(latencies_s), 3
            )
            entry["latency_max_ms"] = round(1000.0 * max(latencies_s), 3)
        if error is not None:
            entry["error"] = error
        self.ledger.append(entry)

    def _ledger_shard(self, event: str, shard: int,
                      pid: Optional[int]) -> None:
        if self.ledger is None:
            return
        entry: Dict[str, object] = {
            "kind": KIND_SERVING_SHARD,
            "event": event,
            "shard": int(shard),
            "pid": pid,
            "model": self.model_name,
        }
        entry.update(self.lineage)
        self.ledger.append(entry)


def _resolve(future: Future, result=None, error=None) -> None:
    """Set a future's outcome, tolerating a concurrent ``cancel()``."""
    from concurrent.futures import InvalidStateError

    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass

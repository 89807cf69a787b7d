"""The process executor: crash-isolated shard processes behind one pool.

:class:`ShardProcessPool` is the process executor of
:class:`~repro.serving.pool.ServingPool`: the same front half — one
:class:`~repro.serving.batcher.MicroBatcher` fed by ``submit``, one worker
loop per slot, futures resolved per request, one ``serving_batch`` ledger
entry per batch — but each slot is an OS **process** (``spawn`` start
method, the same crash-isolation machinery as :mod:`repro.runner.scheduler`)
owning an independent model replica rebuilt from the artifact directory.
The pure-Python simulation engine holds the GIL between numpy calls, which
caps the thread executor at roughly one core; process shards sidestep the
GIL entirely, so throughput scales with cores.

A slot's worker loop round-trips each micro-batch over a duplex pipe to its
shard, and is also the shard's supervisor: a shard that dies mid-batch
(killed, segfaulted, OOM) or exceeds the batch deadline is detected on the
spot, **respawned without dropping the listener**, and the interrupted
batch is retried once on the fresh process before any caller sees a
:class:`~repro.serving.errors.ShardCrashedError` — which the router treats
as transient and retries with backoff anyway.  A shard that cannot even be
spawned fails the same typed way.

Every executed batch is appended to the ledger with its shard index, and
spawn/crash/respawn transitions are recorded as ``serving_shard`` entries,
so a deployment's churn is auditable after the fact.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.observability.ledger import KIND_SERVING_SHARD, RunLedger, SpanBuffer
from repro.observability.structlog import configure_from_env, get_struct_logger
from repro.observability.tracing import TraceContext, record_span
from repro.serving.artifacts import ModelArtifact, load_artifact
from repro.serving.batcher import PendingRequest
from repro.serving.errors import ShardCrashedError
from repro.serving.inference import PredictionService, PredictRequest, PredictResult
from repro.serving.pool import ServingPool, deployment_lineage
from repro.utils.validation import check_positive_int

_log = get_struct_logger("serving.shards")

#: Seconds a freshly spawned shard gets to load its artifact and report ready.
SPAWN_TIMEOUT_S = 120.0

#: Wall-clock budget of one micro-batch round-trip before the shard is
#: declared hung, killed, and respawned.
BATCH_TIMEOUT_S = 120.0

#: Poll granularity of the supervisor's pipe wait.
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
    same trace store as the parent's: one append per batch, flushed before
    the reply so a caller holding the answer can already read its trace.
    """
    configure_from_env()
    log = get_struct_logger("serving.shard").bind(shard=shard_index)
    try:
        artifact = load_artifact(artifact_dir)
        model = artifact.build_model(backend=backend)
        span_ledger = RunLedger(ledger_root) if ledger_root else None
        service = PredictionService(model)
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
        spans = SpanBuffer(span_ledger) if span_ledger is not None else None
        service.span_sink = spans
        batch_started = time.perf_counter()
        try:
            results = service.predict_batch(requests)
        except Exception as error:  # noqa: BLE001 - fanned back to callers
            reply = ("error", f"{type(error).__name__}: {error}")
        else:
            batch_s = time.perf_counter() - batch_started
            for request in requests:
                record_span(spans, request.trace, "shard_batch", batch_s,
                            shard=shard_index, batch_size=len(requests))
            reply = ("ok", [(r.prediction, r.seed, r.spike_count, r.scores)
                            for r in results])
        if spans is not None:
            spans.flush()
        conn.send(reply)


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


class ShardProcessPool(ServingPool):
    """Micro-batching inference pool sharded across worker processes.

    Drop-in for :class:`~repro.serving.pool.ReplicaPool` everywhere the
    serving stack cares — both are the one
    :class:`~repro.serving.pool.ServingPool` — with the worker threads'
    in-thread replicas replaced by supervised worker processes.

    Parameters
    ----------
    artifact_dir:
        The artifact directory every shard rebuilds its replica from (the
        path crosses the process boundary, not the model).
    shards:
        Number of worker processes.
    backend:
        Compute-backend override for every shard (default: the artifact's).
    **options:
        ``max_batch``, ``max_wait_ms``, ``max_queue``, ``drift_detector``
        and ``ledger``, as on :class:`~repro.serving.pool.ServingPool`;
        ledger entries additionally carry the shard index, and shard
        lifecycle transitions are recorded as ``serving_shard`` entries.
        Spawns get :data:`SPAWN_TIMEOUT_S` to report ready and each batch
        round-trip :data:`BATCH_TIMEOUT_S` (a shard past it is killed and
        respawned).
    """

    def __init__(self, artifact_dir, shards: int = 2, *,
                 backend: Optional[str] = None, **options) -> None:
        self.artifact_dir = str(artifact_dir)
        self.shards = check_positive_int(shards, "shards")
        self.backend = backend
        # Validates the artifact in the parent at construction time, so a
        # broken path fails fast instead of inside the first spawn.
        self.artifact: ModelArtifact = load_artifact(self.artifact_dir)
        super().__init__(self.shards, **options)
        self.lineage = deployment_lineage(self.artifact, backend)
        self._context = multiprocessing.get_context("spawn")
        self._handles: List[Optional[_ShardHandle]] = [None] * self.shards
        self.metrics.gauge("shards", "Configured worker-process shards.",
                           key="shards.count", value=self.shards)
        self.metrics.gauge("shards_alive", "Worker-process shards currently alive.",
                           key="shards.alive",
                           read=lambda: sum(pid is not None for pid in self.shard_pids()))
        self._respawns = self.metrics.counter(
            "shard_respawns_total", "Crashed shards respawned by the supervisor.",
            key="shards.respawns_total")
        self.metrics.gauge(None, key="shards.batches_by_shard", read=self._batches_by_shard)

    @classmethod
    def from_artifact(cls, artifact: ModelArtifact, shards: int = 2,
                      **kwargs) -> "ShardProcessPool":
        """Pool sharding ``artifact`` — mirrors ``ReplicaPool.from_artifact``.

        The artifact must still exist on disk at ``artifact.path``: unlike
        the thread executor, shard processes rebuild their replicas from
        the directory, not from the in-memory arrays.
        """
        return cls(artifact.path, shards, **kwargs)

    # -- introspection -------------------------------------------------------

    @property
    def n_input(self) -> int:
        return self.artifact.n_input

    @property
    def model_name(self) -> str:
        return self.artifact.model_name

    @property
    def backend_name(self) -> str:
        return self.backend if self.backend is not None else self.artifact.backend

    respawns_total = property(lambda self: self._respawns.value)

    def shard_pids(self) -> List[Optional[int]]:
        """PID of every shard (``None`` for a currently-dead slot)."""
        with self._lock:
            return [handle.pid if handle is not None and handle.alive else None
                    for handle in self._handles]

    # -- the executor seam ---------------------------------------------------

    def _launch(self) -> None:
        """Spawn every shard, then wait until all report ready."""
        # Spawn all shards first, then wait for readiness — the expensive
        # interpreter start-ups overlap instead of serializing.
        spawned: List[_ShardHandle] = []
        try:
            for index in range(self.shards):
                spawned.append(self._start_shard(index))
            for handle in spawned:
                self._await_ready(handle)
        except BaseException:
            # The pool never started: leave no shard behind.
            for handle in spawned:
                handle.kill()
            raise
        with self._lock:
            self._handles = spawned

    def _shutdown(self) -> None:
        """Ask every shard to exit, then reap it."""
        with self._lock:
            handles, self._handles = self._handles, [None] * self.shards
        for handle in handles:
            if handle is None:
                continue
            try:
                handle.conn.send(("stop",))
            except OSError:
                pass
            handle.process.join(2.0)
            handle.kill()
            self._ledger_shard("stopped", handle.index, handle.pid)

    def _batch_fields(self, worker: int) -> Dict[str, int]:
        return {"shard": int(worker)}

    def _batches_by_shard(self) -> Dict[str, int]:
        with self._lock:
            return {str(index): handle.batches
                    for index, handle in enumerate(self._handles)
                    if handle is not None}

    def _execute(self, index: int, batch: Sequence[PendingRequest],
                 spans: Optional[SpanBuffer]) -> List[PredictResult]:
        """Round-trip ``batch`` to shard ``index``, recovering from a crash.

        One transparent retry on a fresh process: a batch interrupted by a
        crash is usually served successfully by the respawned shard, so
        callers only see :class:`ShardCrashedError` when the failure
        repeats.
        """
        traced = spans is not None and any(
            pending.trace is not None for pending in batch
        )
        payload = [(pending.request.image, pending.request.seed, None)
                   for pending in batch]
        for attempt in (0, 1):
            with self._lock:
                handle = self._handles[index]
            try:
                if handle is None or not handle.alive:
                    handle = self._respawn(index, handle)
            except ShardCrashedError:
                # The *replacement* failed to come up (the old death, if
                # any, was already ledgered by _respawn).
                if attempt == 1:
                    raise
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
                reply = self._rpc(handle, payload)
            except ShardCrashedError as error:
                self._record_rpc(spans, rpc_ctxs, index, len(batch),
                                 time.perf_counter() - rpc_started,
                                 error=str(error))
                self._retire(index, handle)
                if attempt == 1:
                    raise
                continue
            self._record_rpc(spans, rpc_ctxs, index, len(batch),
                             time.perf_counter() - rpc_started)
            break
        if reply[0] == "error":
            raise RuntimeError(reply[1])
        handle.batches += 1
        return [
            PredictResult(prediction=int(prediction), seed=int(seed),
                          spike_count=float(spike_count),
                          scores=np.asarray(scores))
            for prediction, seed, spike_count, scores in reply[1]
        ]

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

    def _start_shard(self, index: int) -> _ShardHandle:
        """:meth:`_spawn`, with any failure to spawn (out of file
        descriptors, processes, memory) raised as :class:`ShardCrashedError`."""
        try:
            return self._spawn(index)
        except Exception as error:
            raise ShardCrashedError(
                f"shard {index} could not be spawned: "
                f"{type(error).__name__}: {error}"
            ) from error

    def _await_ready(self, handle: _ShardHandle) -> None:
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        try:
            while not handle.conn.poll(_POLL_S):
                if time.monotonic() > deadline:
                    handle.kill()
                    raise ShardCrashedError(
                        f"shard {handle.index} did not become ready within "
                        f"{SPAWN_TIMEOUT_S:.0f} s"
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
            self._retire(index, dead)
        handle = self._start_shard(index)
        self._await_ready(handle)
        with self._lock:
            self._handles[index] = handle
            self._respawns.inc()
        self._ledger_shard("respawned", index, handle.pid)
        _log.info("shard_respawned", shard=index, pid=handle.pid)
        return handle

    def _retire(self, index: int, handle: _ShardHandle) -> None:
        """Ledger a shard's death and reap the dead process.

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

    def _rpc(self, handle: _ShardHandle, payload: list) -> tuple:
        """Send one batch and wait for its reply within the batch deadline."""
        deadline = time.monotonic() + BATCH_TIMEOUT_S
        try:
            handle.conn.send(("predict", payload))
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
                        f"{BATCH_TIMEOUT_S:.0f} s batch deadline and was "
                        "killed"
                    )
            return handle.conn.recv()
        except (OSError, EOFError) as error:
            raise ShardCrashedError(
                f"shard {handle.index} died mid-batch ({error})"
            ) from error

    def _record_rpc(self, spans: Optional[SpanBuffer], rpc_ctxs, shard: int,
                    size: int, duration_s: float,
                    error: Optional[str] = None) -> None:
        """One ``shard_rpc`` span per traced request of the attempt."""
        if not rpc_ctxs:
            return
        fields: Dict[str, object] = {"shard": int(shard),
                                     "batch_size": int(size)}
        if error is not None:
            fields["error"] = error
        for ctx in rpc_ctxs:
            record_span(spans, ctx, "shard_rpc", duration_s, **fields)

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

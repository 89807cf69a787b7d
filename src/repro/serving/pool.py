"""One serving pool over two executors: worker threads or worker processes.

:class:`ServingPool` owns everything a pool does wherever the model runs:
one :class:`~repro.serving.batcher.MicroBatcher` fed by
:meth:`~ServingPool.submit`, which validates every image before it is
queued; one worker loop per executor slot that claims the next micro-batch
and fans its results (or its error) back out to the per-request futures;
the metrics and drift monitor; one ``serving_batch`` ledger entry per
batch; and one ``start``/``stop`` lifecycle.  Only where a batch runs
differs, behind a small executor seam that subclasses fill in
(:meth:`~ServingPool._execute` plus optional lifecycle hooks):

* :class:`ReplicaPool` is the **thread** executor.  Each worker thread owns
  its *own* :class:`~repro.serving.inference.PredictionService` built from
  the artifact — independent networks, weights, and adaptation state, so
  replicas never contend on (or corrupt) shared mutable simulation state —
  and runs ``predict_batch`` in-thread.  The pure-Python engine holds the
  GIL while numpy is *not* executing, but the batched hot path spends its
  time inside vectorized numpy calls that release it — so replicas overlap
  meaningfully on multi-core hosts, and the pool degrades gracefully to a
  fair queue on one core.
* :class:`~repro.serving.shards.ShardProcessPool` is the **process**
  executor: each worker loop round-trips its batch to a supervised shard
  process, which sidesteps the GIL and isolates crashes.

Every ledger record of one batch — spans and the ``serving_batch`` entry
alike — goes through one buffer and lands in a single file append, so
tracing adds serialized bytes to a write the untraced path performs anyway,
not extra syscalls per span.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.models.base import UnsupervisedDigitClassifier
from repro.observability.ledger import (
    KIND_SERVING_BATCH,
    RunLedger,
    SpanBuffer,
    artifact_lineage,
)
from repro.observability.structlog import get_struct_logger
from repro.observability.tracing import record_span
from repro.serving.artifacts import ModelArtifact
from repro.serving.batcher import MicroBatcher, PendingRequest
from repro.serving.drift import SpikeCountDriftDetector
from repro.serving.errors import ShardCrashedError
from repro.serving.inference import PredictionService, PredictRequest, PredictResult
from repro.serving.metrics import ServingMetrics
from repro.utils.validation import check_positive_int

_log = get_struct_logger("serving.pool")

#: Poll granularity of a worker loop's wait for the next micro-batch.
_POLL_S = 0.1


def _resolve(future: Future, result=None, error=None) -> None:
    """Set a future's outcome, tolerating a concurrent ``cancel()``.

    These futures never enter RUNNING state, so a handler-side ``cancel()``
    (e.g. on request timeout) can succeed at any moment before the worker's
    ``set_result`` — including between a ``cancelled()`` check and the set
    call.  ``InvalidStateError`` from that race means the caller is gone;
    the worker must shrug, not die.
    """
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


class ServingPool:
    """Micro-batching inference pool over ``workers`` executor slots.

    Subclasses are the executors: they provide ``n_input``, ``model_name``
    and ``backend_name`` and implement :meth:`_execute`.

    Parameters
    ----------
    workers:
        Number of worker loops, one per executor slot (thread or shard).
    max_batch, max_wait_ms, max_queue:
        Micro-batcher knobs (see :class:`~repro.serving.batcher.
        MicroBatcher`).
    drift_detector:
        Optional online drift monitor fed every request's spike count.
    ledger:
        Optional persistent :class:`~repro.observability.ledger.RunLedger`.
        Every executed micro-batch is appended as a ``serving_batch`` entry
        carrying the deployment's :attr:`lineage` plus size, latency, and
        outcome.  ``None`` (the default — benchmarks and tests construct
        pools directly) disables recording; ``repro serve`` attaches the
        default ledger.
    """

    def __init__(self, workers: int, *, max_batch: int = 32,
                 max_wait_ms: float = 5.0, max_queue: int = 1024,
                 drift_detector: Optional[SpikeCountDriftDetector] = None,
                 ledger: Optional[RunLedger] = None) -> None:
        self.workers = check_positive_int(workers, "workers")
        self.batcher = MicroBatcher(max_batch=max_batch, max_wait_ms=max_wait_ms,
                                    max_queue=max_queue)
        metrics = self.metrics = ServingMetrics()
        metrics.gauge("queue_depth", "Requests currently waiting in the queue.",
                      read=lambda: self.queue_depth)
        if drift_detector is not None:
            metrics.gauge("drift", "Spike-count drift detector field", read=drift_detector.state)
        metrics.gauge(None, key="backend", read=lambda: self.backend_name)
        metrics.gauge(None, key="model", read=lambda: self.model_name)
        metrics.gauge("info", "Deployment identity (constant 1; identity in labels).",
                      key=None, value=1,
                      labels=lambda: {"backend": self.backend_name, "model": self.model_name})
        self.drift_detector = drift_detector
        self.ledger = ledger
        #: Extra fields stamped on every ledger entry (artifact name/version,
        #: config hash, ...); filled from the artifact when there is one.
        self.lineage: dict = {}
        self._threads: List[threading.Thread] = []
        self._started = False
        self._lock = threading.Lock()

    # -- introspection -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self.batcher.depth

    @property
    def running(self) -> bool:
        with self._lock:
            return self._started

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServingPool":
        """Bring the executor up, then start the worker loops (idempotent
        while running).

        A stopped pool cannot be restarted: its queue is permanently
        closed, so a second ``start()`` would report healthy workers that
        all exit immediately.  Build a fresh pool instead.  A pool whose
        executor fails to come up closes its queue the same way, so later
        submits fail fast instead of waiting for workers that never start.
        """
        if self.batcher.closed:
            raise RuntimeError(
                "this pool has been stopped and cannot be restarted; "
                f"build a new {type(self).__name__}"
            )
        with self._lock:
            if self._started:
                return self
            self._started = True
        try:
            self._launch()
        except BaseException:
            with self._lock:
                self._started = False
            self.batcher.close(cancel_pending=True)
            raise
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, args=(index,),
                name=f"repro-serve-worker-{index}", daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        _log.info("pool_started", executor=type(self).__name__,
                  workers=self.workers, model=self.model_name,
                  backend=self.backend_name, max_batch=self.batcher.max_batch)
        return self

    def stop(self, timeout: float = 10.0, cancel_pending: bool = False) -> None:
        """Close the queue, drain (or cancel) pending work, join the worker
        loops, then shut the executor down."""
        self.batcher.close(cancel_pending=cancel_pending)
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()
        with self._lock:
            self._started = False
        self._shutdown()

    def __enter__(self) -> "ServingPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request path --------------------------------------------------------

    def submit(self, image: np.ndarray, seed: Optional[int] = None) -> Future:
        """Enqueue one request; the future resolves to a ``PredictResult``.

        Raises ``ValueError`` for an image of the wrong size or with
        non-finite or negative intensities,
        :class:`~repro.serving.batcher.QueueFullError` under backpressure
        and :class:`~repro.serving.batcher.QueueClosedError` after
        :meth:`stop`; all are recorded in the metrics as rejections.
        """
        image = np.asarray(image, dtype=float)
        # Encoding rejects bad intensities — but only inside a worker, where
        # one bad image would fail its whole micro-batch.  Catch them here
        # so the error stays with the offending request.
        problem = None
        if image.size != self.n_input:
            problem = (f"image has {image.size} pixels but the model expects "
                       f"{self.n_input}")
        elif not np.isfinite(image).all():
            problem = "image contains non-finite values"
        elif np.any(image < 0):
            problem = "image intensities must be non-negative"
        if problem is not None:
            self.metrics.record_rejected()
            raise ValueError(problem)
        try:
            future = self.batcher.submit(PredictRequest(image=image, seed=seed))
        except Exception:
            self.metrics.record_rejected()
            raise
        self.metrics.record_request()
        return future

    def predict(self, image: np.ndarray, seed: Optional[int] = None,
                timeout: Optional[float] = None) -> PredictResult:
        """Synchronous convenience wrapper around :meth:`submit`.

        On timeout the request is cancelled (best effort), so an abandoned
        caller does not keep consuming worker compute.
        """
        future = self.submit(image, seed=seed)
        try:
            return future.result(timeout)
        except FutureTimeoutError:
            future.cancel()
            raise

    def metrics_snapshot(self) -> dict:
        """Current metrics, including queue depth, drift state, backend and
        model, plus the executor's own metrics."""
        return self.metrics.snapshot()

    # -- worker --------------------------------------------------------------

    def _worker_loop(self, worker: int) -> None:
        """Claim batches until the queue is closed and drained.

        A failing batch fails only its own futures: the loop never dies, so
        the slot keeps serving later batches.
        """
        while True:
            batch = self.batcher.next_batch(timeout=_POLL_S)
            if batch is None:
                return
            if batch:
                self._serve_batch(worker, batch)

    def _serve_batch(self, worker: int,
                     batch: Sequence[PendingRequest]) -> None:
        claimed = time.perf_counter()
        fields = self._batch_fields(worker)
        spans = SpanBuffer(self.ledger) if self.ledger is not None else None
        if spans is not None:
            for pending in batch:
                # Timed from the submit-side enqueue stamp.
                if pending.trace is not None:
                    record_span(spans, pending.trace.child(), "queue_wait",
                                claimed - pending.enqueued_at,
                                batch_size=len(batch), **fields)
        results: List[PredictResult] = []
        try:
            results = self._execute(worker, batch, spans)
        except Exception as error:  # noqa: BLE001 - fanned out to callers
            for pending in batch:
                _resolve(pending.future, error=error)
            self.metrics.record_errors(len(batch))
            outcome = ("crashed" if isinstance(error, ShardCrashedError)
                       else "error")
            _log.error("batch_failed", worker=worker, size=len(batch),
                       outcome=outcome, error=str(error))
            self._ledger_batch(spans, fields, len(batch), [], outcome,
                               error=str(error))
        else:
            finished = time.perf_counter()
            for pending, result in zip(batch, results):
                _resolve(pending.future, result=result)
            latencies = [finished - pending.enqueued_at for pending in batch]
            self.metrics.record_batch(len(batch), latencies)
            self._ledger_batch(spans, fields, len(batch), latencies, "ok")
        finally:
            if spans is not None:
                spans.flush()
        if self.drift_detector is not None:
            for result in results:
                self.drift_detector.observe(result.spike_count)

    def _ledger_batch(self, sink: Optional[SpanBuffer], fields: Dict[str, int],
                      size: int, latencies_s: Sequence[float], outcome: str,
                      error: Optional[str] = None) -> None:
        """Buffer one ``serving_batch`` entry with the pool's lineage."""
        if sink is None:
            return
        entry = {
            "kind": KIND_SERVING_BATCH,
            "outcome": outcome,
            "batch_size": int(size),
            "backend": self.backend_name,
            "model": self.model_name,
            **fields,
        }
        entry.update(self.lineage)
        if latencies_s:
            entry["latency_mean_ms"] = round(
                1000.0 * sum(latencies_s) / len(latencies_s), 3
            )
            entry["latency_max_ms"] = round(1000.0 * max(latencies_s), 3)
        if error is not None:
            entry["error"] = error
        sink.append(entry)

    # -- the executor seam ---------------------------------------------------

    def _execute(self, worker: int, batch: Sequence[PendingRequest],
                 spans: Optional[SpanBuffer]) -> List[PredictResult]:
        """Results of ``batch`` in request order, run on slot ``worker``.

        Raising fails the whole batch with that exception;
        :class:`~repro.serving.errors.ShardCrashedError` is ledgered as
        ``crashed``, anything else as ``error``.  ``spans`` (``None`` without
        a ledger) collects the executor's spans for the batch's one write.
        """
        raise NotImplementedError

    def _launch(self) -> None:
        """Bring the executor's slots up before the worker loops start."""

    def _shutdown(self) -> None:
        """Tear the executor down after the worker loops have exited."""

    def _batch_fields(self, worker: int) -> Dict[str, int]:
        """Fields naming ``worker`` on its queue-wait spans and batch entries."""
        return {}


class ReplicaPool(ServingPool):
    """The thread executor: worker threads, each with its own model replica.

    Parameters
    ----------
    model_factory:
        Zero-argument callable building one independent model replica;
        called once per worker.  Use :meth:`from_artifact` for the common
        case, which also fills :attr:`lineage` from the artifact.
    workers:
        Number of worker threads (= replicas).
    **options:
        ``max_batch``, ``max_wait_ms``, ``max_queue``, ``drift_detector``
        and ``ledger``, as on :class:`ServingPool`.
    """

    def __init__(self, model_factory: Callable[[], UnsupervisedDigitClassifier],
                 workers: int = 2, **options) -> None:
        super().__init__(workers, **options)
        self.replicas: List[PredictionService] = [
            PredictionService(model_factory()) for _ in range(self.workers)
        ]

    @classmethod
    def from_artifact(cls, artifact: ModelArtifact, workers: int = 2,
                      **options) -> "ReplicaPool":
        """Pool whose replicas are independent reconstructions of ``artifact``.

        The artifact's lineage (name, version, config hash, backend) is
        attached to the pool so ledger entries can attribute every batch
        to it.
        """
        pool = cls(artifact.build_model, workers, **options)
        pool.lineage = artifact_lineage(artifact)
        return pool

    @property
    def n_input(self) -> int:
        """Input size every request image must match."""
        return self.replicas[0].n_input

    @property
    def model_name(self) -> str:
        return self.replicas[0].model.name

    @property
    def backend_name(self) -> str:
        """Compute backend the replicas run on (reported in ``/metrics``)."""
        return self.replicas[0].model.backend_name

    def _execute(self, worker: int, batch: Sequence[PendingRequest],
                 spans: Optional[SpanBuffer]) -> List[PredictResult]:
        started = time.perf_counter()
        service = self.replicas[worker]
        service.span_sink = spans
        traced = [pending for pending in batch
                  if spans is not None and pending.trace is not None]
        for pending in traced:
            # The serve phase gets its own span, which the encode/kernel
            # spans parent under.
            pending.request.trace = pending.trace.child()
        fields = {"batch_size": len(batch)}
        try:
            return service.predict_batch([pending.request for pending in batch])
        except Exception as error:
            fields["error"] = str(error)
            raise
        finally:
            for pending in traced:
                record_span(spans, pending.request.trace, "serve_batch",
                            time.perf_counter() - started, **fields)

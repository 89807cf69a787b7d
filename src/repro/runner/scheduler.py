"""Process-pool scheduler with crash isolation and per-job timeouts.

The scheduler runs one OS process per job, keeping at most ``workers``
alive at a time.  Workers fork from
:data:`~repro.utils.processes.WORKER_CONTEXT`, the forkserver the serving
shards start from too: it has imported the worker module and the experiment
registry once, so a job starts with a fork instead of a fresh interpreter,
and it inherits none of the scheduler's state.  Each worker gets the
scheduler's environment as it stands when the job starts (see
:mod:`repro.utils.processes` for that rule and its BLAS caveat).
Per-process execution gives the two properties a long reproduction run
needs:

* **crash isolation** — a segfaulting or raising job is recorded as
  ``failed`` in the manifest and the remaining jobs keep running;
* **hard timeouts** — a hung job is terminated (then killed) when its
  wall-clock budget expires and recorded as ``timeout``.

Completed records are stored in the content-addressed
:class:`~repro.runner.cache.ResultCache` and appended to the
:class:`~repro.runner.manifest.RunManifest`, so an immediate re-run is served
from cache and an interrupted run resumes from the manifest.

``workers=0`` executes jobs in-process (sequentially, no subprocesses) with
identical cache/manifest semantics — drivers seed every stochastic component
from ``scale.seed``, so the parallel and in-process paths produce
byte-identical reports.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.observability.ledger import RunLedger, job_entry
from repro.observability.runmetrics import RunnerMetrics
from repro.observability.structlog import get_struct_logger
from repro.observability.tracing import (
    TraceContext,
    record_span,
    span,
    trace_id_for_job,
    trace_scope,
)
from repro.runner.cache import ResultCache
from repro.runner.jobs import JobSpec
from repro.runner.manifest import (
    SOURCE_CACHE,
    SOURCE_MANIFEST,
    SOURCE_RUN,
    STATUS_FAILED,
    STATUS_TIMEOUT,
    JobRecord,
    RunManifest,
)
from repro.runner.worker import execute_payload, worker_main
from repro.utils.processes import WORKER_CONTEXT

_log = get_struct_logger("runner.scheduler")

#: How often the scheduler polls running workers, in seconds.
POLL_INTERVAL = 0.05

#: Grace period between SIGTERM and SIGKILL for timed-out workers.
TERMINATE_GRACE = 1.0

EventCallback = Callable[[str, JobRecord], None]


@dataclass
class _Running:
    """Book-keeping of one live worker process."""

    job: JobSpec
    key: str
    process: multiprocessing.process.BaseProcess
    channel: "multiprocessing.queues.Queue"
    started: float

    def deadline_passed(self, now: float) -> bool:
        return self.job.timeout is not None and now - self.started > self.job.timeout


class ParallelRunner:
    """Schedule :class:`JobSpec` lists across worker processes.

    Parameters
    ----------
    workers:
        Maximum concurrent worker processes; ``0`` executes in-process.
    cache:
        Result cache consulted before executing and updated after every
        completion.  ``None`` disables caching.
    manifest:
        Run manifest updated after every terminal job state.  ``None``
        disables manifest tracking (and resumption).
    resume:
        When true, jobs already completed in ``manifest`` are served from it
        without re-execution (failed/timeout entries are retried).
    force:
        When true, cache hits are ignored (everything re-executes);
        ``resume`` is ignored too.
    ledger:
        Optional persistent :class:`~repro.observability.ledger.RunLedger`.
        Every terminal job — executed, cache-served (``outcome="cached"``),
        or manifest-resumed — is appended with its full lineage (content
        key, config hash, package version, timing, outcome).
        ``None`` disables ledger recording.
    on_event:
        Optional callback ``(event, record)`` invoked on ``"start"``,
        ``"cached"``, ``"resumed"``, and ``"done"`` transitions — the CLI
        uses it for progress lines.
    metrics:
        Optional :class:`~repro.observability.runmetrics.RunnerMetrics`
        sink fed job transitions, queue depth, and in-flight counts (the
        ``repro run-all --metrics-port`` endpoint scrapes it).

    When a ledger is attached, every job is traced: its trace id is
    :func:`~repro.observability.tracing.trace_id_for_job` of the content
    key (deterministic — re-running the same job reproduces the same
    trace), the scheduler records ``job``/``queue_wait`` spans, and workers
    record ``job_execute`` in their own process.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        cache: Optional[ResultCache] = None,
        manifest: Optional[RunManifest] = None,
        resume: bool = True,
        force: bool = False,
        ledger: Optional[RunLedger] = None,
        on_event: Optional[EventCallback] = None,
        metrics: Optional[RunnerMetrics] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.cache = cache
        self.manifest = manifest
        self.resume = resume
        self.force = force
        self.ledger = ledger
        self.on_event = on_event
        self.metrics = metrics
        self._context = WORKER_CONTEXT
        self._jobs_by_key: Dict[str, JobSpec] = {}
        self._trace_by_key: Dict[str, TraceContext] = {}

    # -- public API ------------------------------------------------------------

    def run(self, jobs: Sequence[JobSpec]) -> List[JobRecord]:
        """Execute ``jobs`` and return one terminal record per job, in order.

        Jobs satisfied without execution (cache hit, completed manifest
        entry) are returned with ``source`` set to ``"cache"`` /
        ``"manifest"``; everything else is executed and recorded with
        ``source="run"``.
        """
        records: Dict[str, JobRecord] = {}
        to_run: List[JobSpec] = []
        queued: set = set()
        _log.info("run_started", jobs=len(jobs), workers=self.workers)
        if self.metrics is not None:
            self.metrics.set_workers(self.workers)
        for job in jobs:
            key = job.key()
            self._jobs_by_key[key] = job
            if key in records or key in queued:
                continue
            shortcut = self._shortcut_record(job, key)
            if shortcut is not None:
                records[key] = shortcut
                # Batch the manifest writes: a fully-resumed run would
                # otherwise rewrite the whole file once per shortcut.
                self._record_done(shortcut, save=False)
            else:
                queued.add(key)
                to_run.append(job)
        if records and self.manifest is not None:
            self.manifest.save()

        if to_run:
            if self.workers == 0:
                executed = self._run_inline(to_run)
            else:
                executed = self._run_pool(to_run)
            records.update(executed)

        ordered = [records[job.key()] for job in jobs]
        _log.info(
            "run_finished",
            jobs=len(ordered),
            completed=sum(1 for record in ordered if record.ok),
            executed=len(to_run),
        )
        return ordered

    # -- shortcut paths --------------------------------------------------------

    def _shortcut_record(self, job: JobSpec, key: str) -> Optional[JobRecord]:
        """A terminal record available without executing ``job``, if any."""
        if self.force:
            return None
        if self.manifest is not None and self.resume and self.manifest.is_complete(key):
            record = self.manifest.records[key]
            if record.report is None and self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    record.report = cached.get("report")
            record.source = SOURCE_MANIFEST
            self._emit("resumed", record)
            return record
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None and cached.get("status") == "completed":
                record = JobRecord.from_dict(cached)
                record.source = SOURCE_CACHE
                self._emit("cached", record)
                return record
        return None

    # -- execution paths -------------------------------------------------------

    def _run_inline(self, jobs: Sequence[JobSpec]) -> Dict[str, JobRecord]:
        """In-process sequential execution (``workers=0``).

        Timeouts need a killable process, so they are not enforced here — a
        warning is emitted if any job requests one.
        """
        if any(job.timeout is not None for job in jobs):
            warnings.warn(
                "per-job timeouts are not enforced on the in-process path "
                "(workers=0); use workers >= 1 for killable jobs",
                RuntimeWarning,
                stacklevel=3,
            )
        records: Dict[str, JobRecord] = {}
        for job in jobs:
            _log.info(
                "job_started",
                key=job.key(),
                experiment=job.experiment,
                seed=job.seed,
                inline=True,
            )
            self._emit("start", self._pending_record(job))
            if self.metrics is not None:
                self.metrics.record_started()
            context = self._job_trace(job.key())
            with trace_scope(context, sink=self.ledger):
                with span("job_execute", experiment=job.experiment):
                    record = JobRecord.from_dict(execute_payload(job.to_dict()))
            records[record.key] = record
            self._record_done(record)
        return records

    def _run_pool(self, jobs: Sequence[JobSpec]) -> Dict[str, JobRecord]:
        """Process-per-job execution with up to :attr:`workers` in flight."""
        pending: List[JobSpec] = list(jobs)
        running: List[_Running] = []
        records: Dict[str, JobRecord] = {}
        queued_at = {job.key(): time.perf_counter() for job in jobs}
        try:
            while pending or running:
                while pending and len(running) < self.workers:
                    job = pending.pop(0)
                    running.append(
                        self._start_worker(job, queued_at.get(job.key()))
                    )
                if self.metrics is not None:
                    self.metrics.set_progress(len(pending), len(running))
                now = time.monotonic()
                still_running: List[_Running] = []
                for entry in running:
                    record = self._poll_worker(entry, now)
                    if record is None:
                        still_running.append(entry)
                    else:
                        records[record.key] = record
                        self._record_done(record)
                running = still_running
                if running:
                    time.sleep(POLL_INTERVAL)
        except BaseException:
            for entry in running:
                self._kill(entry.process)
            raise
        finally:
            if self.metrics is not None:
                self.metrics.set_progress(0, 0)
        return records

    def _job_trace(self, key: str) -> Optional[TraceContext]:
        """The job's span context (created once per key); ``None`` untraced.

        The trace id derives from the content key, so a re-run of the same
        job lands in the same trace — and a retried/restarted worker keeps
        the identity of the work, not of the attempt.
        """
        if self.ledger is None:
            return None
        context = self._trace_by_key.get(key)
        if context is None:
            root = TraceContext(trace_id=trace_id_for_job(key))
            context = root.child()
            self._trace_by_key[key] = context
        return context

    def _start_worker(self, job: JobSpec,
                      queued_at: Optional[float] = None) -> _Running:
        channel = self._context.Queue()
        context = self._job_trace(job.key())
        args = (job.to_dict(), channel, dict(os.environ))
        if context is not None:
            # Outside the payload: the payload is hashed into the content
            # key, so the trace must ride as separate worker arguments.
            args += (context.to_dict(), str(self.ledger.root))
        process = self._context.Process(
            target=worker_main, args=args, daemon=True
        )
        process.start()
        if context is not None and queued_at is not None:
            record_span(self.ledger, context.child(), "queue_wait",
                        time.perf_counter() - queued_at,
                        experiment=job.experiment)
        if self.metrics is not None:
            self.metrics.record_started()
        _log.info(
            "job_started",
            key=job.key(),
            experiment=job.experiment,
            seed=job.seed,
            pid=process.pid,
            timeout_s=job.timeout,
        )
        self._emit("start", self._pending_record(job))
        return _Running(
            job=job,
            key=job.key(),
            process=process,
            channel=channel,
            started=time.monotonic(),
        )

    def _poll_worker(self, entry: _Running, now: float) -> Optional[JobRecord]:
        """Terminal record of ``entry`` if it finished/expired, else ``None``."""
        result: Optional[Dict[str, object]] = None
        try:
            result = entry.channel.get_nowait()
        except queue_module.Empty:
            result = None

        if result is not None:
            self._reap(entry.process)
            record = JobRecord.from_dict(result)  # type: ignore[arg-type]
            record.key = entry.key
            return record

        if entry.deadline_passed(now):
            # The worker may have finished in the window since the poll above
            # — drain once more before declaring the deadline missed.
            try:
                result = entry.channel.get(timeout=0.2)
            except (queue_module.Empty, OSError, EOFError):
                result = None
            if result is not None:
                self._reap(entry.process)
                record = JobRecord.from_dict(result)  # type: ignore[arg-type]
                record.key = entry.key
                return record
            self._kill(entry.process)
            _log.warning(
                "job_timeout",
                key=entry.key,
                experiment=entry.job.experiment,
                timeout_s=entry.job.timeout,
            )
            return JobRecord(
                key=entry.key,
                experiment=entry.job.experiment,
                output=entry.job.output_stem,
                seed=entry.job.seed,
                status=STATUS_TIMEOUT,
                source=SOURCE_RUN,
                elapsed=now - entry.started,
                error=f"job exceeded its {entry.job.timeout:.1f} s timeout and was killed",
            )

        if not entry.process.is_alive():
            entry.process.join()
            # The result may still be in flight through the queue's pipe even
            # though the worker already exited — give it one grace read.
            try:
                result = entry.channel.get(timeout=0.2)
            except (queue_module.Empty, OSError, EOFError):
                result = None
            if result is not None:
                record = JobRecord.from_dict(result)  # type: ignore[arg-type]
                record.key = entry.key
                return record
            # Died without reporting: crashed (segfault, os._exit, OOM kill).
            _log.warning(
                "job_crashed",
                key=entry.key,
                experiment=entry.job.experiment,
                exitcode=entry.process.exitcode,
            )
            return JobRecord(
                key=entry.key,
                experiment=entry.job.experiment,
                output=entry.job.output_stem,
                seed=entry.job.seed,
                status=STATUS_FAILED,
                source=SOURCE_RUN,
                elapsed=now - entry.started,
                error=f"worker exited without a result (exitcode {entry.process.exitcode})",
            )
        return None

    # -- helpers ---------------------------------------------------------------

    def _pending_record(self, job: JobSpec) -> JobRecord:
        return JobRecord(
            key=job.key(),
            experiment=job.experiment,
            output=job.output_stem,
            seed=job.seed,
            status="running",
        )

    def _record_done(self, record: JobRecord, save: bool = True) -> None:
        if record.source == SOURCE_RUN:
            if self.cache is not None and record.ok:
                self.cache.put(record.key, record.to_dict())
            self._emit("done", record)
            context = self._trace_by_key.get(record.key)
            if context is not None:
                # The scheduler-side umbrella span of the whole job: the
                # worker's job_execute (and any retries) nest under it.
                record_span(self.ledger, context, "job", record.elapsed,
                            experiment=record.experiment,
                            status=record.status)
        if self.metrics is not None:
            self.metrics.record_finished(record)
        self._ledger_record(record)
        _log.info(
            "job_finished",
            key=record.key,
            experiment=record.experiment,
            status=record.status,
            source=record.source,
            elapsed_s=round(record.elapsed, 6),
        )
        if self.manifest is not None:
            self.manifest.update(record, save=save)

    def _ledger_record(self, record: JobRecord) -> None:
        """Append ``record`` to the persistent ledger, if one is attached.

        Cache- and manifest-served jobs are recorded too (with outcome
        ``"cached"`` / ``"resumed"``): the ledger answers "what did this run
        touch", not just "what did it execute".
        """
        if self.ledger is None:
            return
        job = self._jobs_by_key.get(record.key)
        if job is None:  # pragma: no cover - records always follow a job
            return
        entry = job_entry(job, record)
        context = self._trace_by_key.get(record.key)
        if context is not None:
            entry.setdefault("trace_id", context.trace_id)
            entry.setdefault("span_id", context.span_id)
        else:
            # Cache/manifest shortcuts never executed, but their entry still
            # joins the job's deterministic trace id for lineage queries.
            entry.setdefault("trace_id", trace_id_for_job(record.key))
        self.ledger.append(entry)

    def _emit(self, event: str, record: JobRecord) -> None:
        if self.on_event is not None:
            self.on_event(event, record)

    @classmethod
    def _reap(cls, process: multiprocessing.process.BaseProcess) -> None:
        """Collect a worker whose result has been read, with a bounded wait.

        A driver that leaked a non-daemon thread would keep the process alive
        after its result arrived; never block the scheduler on it — give it a
        grace period, then kill it.
        """
        process.join(TERMINATE_GRACE)
        if process.is_alive():
            cls._kill(process)

    @staticmethod
    def _kill(process: multiprocessing.process.BaseProcess) -> None:
        if not process.is_alive():
            process.join()
            return
        process.terminate()
        process.join(TERMINATE_GRACE)
        if process.is_alive():
            process.kill()
            process.join()

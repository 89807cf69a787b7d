"""Worker-side job execution.

Everything in this module runs inside the worker *process* (or in-process
when the scheduler runs with ``workers=0``).  The forkserver of
:data:`~repro.utils.processes.WORKER_CONTEXT` imports this module, and with
it the experiment registry, before it forks any worker; the entry point is
module-level so the worker can resolve it by reference.  The payload handed
over is the plain-JSON :meth:`~repro.runner.jobs.JobSpec.to_dict` form, so no
library object has to be picklable.

Driver resolution: a payload's ``experiment`` is either a name from
:mod:`repro.experiments.registry` or a ``"module:callable"`` reference (used
by the crash/hang fixtures in :mod:`repro.runner.testing`).  Either way the
callable receives ``(scale, **overrides)`` and must return a string or an
object with ``to_text()``.
"""

from __future__ import annotations

import importlib
import time
import traceback
from typing import Any, Callable, Dict, Mapping, Optional

from repro.experiments.common import ExperimentScale
from repro.experiments.registry import EXPERIMENTS, render_report
from repro.observability.ledger import RunLedger
from repro.observability.structlog import configure_from_env, get_struct_logger
from repro.observability.tracing import TraceContext, span, trace_scope
from repro.runner.jobs import JobSpec
from repro.runner.manifest import STATUS_COMPLETED, STATUS_FAILED
from repro.utils.processes import adopt_environment

_log = get_struct_logger("runner.worker")


def resolve_runner(experiment: str) -> Callable[..., Any]:
    """The driver callable behind ``experiment``.

    Registry names win; ``"module:callable"`` references are imported as a
    fallback so tests and ad-hoc workloads can inject drivers without
    mutating the registry of every worker process.
    """
    spec = EXPERIMENTS.get(experiment)
    if spec is not None:
        return spec.runner
    if ":" in experiment:
        module_name, _, attribute = experiment.partition(":")
        module = importlib.import_module(module_name)
        runner = getattr(module, attribute)
        if not callable(runner):
            raise TypeError(f"{experiment!r} does not name a callable")
        return runner
    known = ", ".join(EXPERIMENTS)
    raise KeyError(f"unknown experiment {experiment!r}; known experiments: {known}")


def execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job payload to completion and return its record dictionary.

    The record matches :class:`repro.runner.manifest.JobRecord`; a raising
    driver yields a ``failed`` record with the traceback instead of
    propagating (crash isolation also holds on the in-process path).
    """
    job = JobSpec.from_dict(payload)
    job_log = _log.bind(key=job.key(), experiment=job.experiment, seed=job.seed)
    started = time.perf_counter()
    record: Dict[str, Any] = {
        "key": job.key(),
        "experiment": job.experiment,
        "output": job.output_stem,
        "seed": job.seed,
        "source": "run",
    }
    job_log.info("execute_started")
    try:
        runner = resolve_runner(job.experiment)
        scale: ExperimentScale = job.scale
        report = render_report(runner(scale, **dict(job.overrides)))
    except Exception:
        record["status"] = STATUS_FAILED
        record["error"] = traceback.format_exc()
        job_log.error("execute_failed", error=record["error"].strip().splitlines()[-1])
    else:
        record["status"] = STATUS_COMPLETED
        record["report"] = report
        job_log.info("execute_completed", elapsed_s=round(time.perf_counter() - started, 6))
    record["elapsed"] = time.perf_counter() - started
    return record


def worker_main(
    payload: Dict[str, Any],
    queue: Any,
    environment: Mapping[str, str],
    trace: Optional[Dict[str, Any]] = None,
    ledger_root: Optional[str] = None,
) -> None:
    """Subprocess entry: execute ``payload`` and put the record on ``queue``.

    Must never raise: a worker that dies without enqueueing anything is
    recorded as crashed by the scheduler, so even queue failures are reported
    as a failed record when possible.

    ``trace``/``ledger_root`` travel *outside* the payload on purpose: the
    payload is hashed into the job's content key, so the trace identity must
    never change what is being computed.  When set, the whole execution runs
    under a ``job_execute`` span written to the parent's ledger, and every
    worker-side log event carries the trace id.
    """
    # A worker forks from the forkserver, not from the scheduler: it has the
    # server's environment and no logging configuration.  Take the
    # scheduler's environment first, then re-apply its structured-logging
    # request so a run under ``REPRO_LOG_JSON=1`` streams worker-side events.
    adopt_environment(environment)
    configure_from_env()
    context: Optional[TraceContext] = None
    sink: Optional[RunLedger] = None
    if trace:
        try:
            context = TraceContext.from_dict(trace)
            sink = RunLedger(ledger_root) if ledger_root else None
        except Exception:  # noqa: BLE001 - tracing must never fail a job
            context, sink = None, None
    try:
        with trace_scope(context, sink=sink):
            with span("job_execute",
                      experiment=payload.get("experiment", "?")):
                record = execute_payload(payload)
    except BaseException:
        record = {
            "key": payload.get("experiment", "?"),
            "experiment": payload.get("experiment", "?"),
            "output": payload.get("output", "?"),
            "seed": payload.get("seed", 0),
            "status": STATUS_FAILED,
            "source": "run",
            "error": traceback.format_exc(),
            "elapsed": 0.0,
        }
    try:
        queue.put(record)
    except BaseException:  # pragma: no cover - queue teardown race
        pass

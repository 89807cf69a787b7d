"""Stdlib-only structured logging with bound context (structlog-inspired).

A :class:`StructLogger` wraps a stdlib :class:`logging.Logger` and emits one
JSON object per event::

    log = get_struct_logger("runner.scheduler", run_id="abc")
    log.info("job_started", experiment="fig5", workers=4)
    # {"event": "job_started", "experiment": "fig5", "level": "info",
    #  "logger": "repro.runner.scheduler", "run_id": "abc",
    #  "ts": "2026-08-08T12:00:00.123456+00:00", "workers": 4}

``bind(**ctx)`` returns a *new* logger carrying merged context — loggers are
immutable, so handing a bound logger to a helper never leaks context back
into the caller.  Events route through the ordinary ``repro.*`` stdlib
logger hierarchy: without a configured handler they are invisible (stdout
stays clean for report text), and :func:`configure_structured_logging`
attaches a raw JSON-lines stream handler when machine-parseable output is
wanted.  Setting ``REPRO_LOG_JSON=1`` makes the CLI call it on startup.
"""

from __future__ import annotations

import datetime
import json
import logging
import os
import sys
from typing import Any, Dict, Mapping, Optional

from repro.observability.tracing import trace_fields

#: Environment variable that makes the CLI emit JSON-lines events to stderr.
LOG_JSON_ENV = "REPRO_LOG_JSON"

#: Environment variable selecting the emitted level (default ``info``).
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

_LIBRARY_LOGGER_NAME = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

# Library hygiene: without any handler, stdlib logging's lastResort handler
# would print WARNING+ records (raw JSON lines) to stderr behind the user's
# back.  A NullHandler keeps events silent until logging is configured
# explicitly (configure_logging / configure_structured_logging).
logging.getLogger(_LIBRARY_LOGGER_NAME).addHandler(logging.NullHandler())


def _json_safe(value: Any) -> Any:
    """Reduce ``value`` to something ``json.dumps`` accepts, last resort str.

    Event fields routinely carry numpy scalars, paths, and exceptions;
    logging must never raise because a field was exotic.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(item) for item in value]
    if hasattr(value, "tolist"):
        try:  # numpy scalars and arrays reduce to Python equivalents
            return _json_safe(value.tolist())
        except Exception:  # noqa: BLE001 - fall through to str
            pass
    return str(value)


def _utc_timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class StructLogger:
    """Immutable key-value event logger emitting JSON lines.

    Parameters
    ----------
    logger:
        The stdlib logger events are routed through.
    context:
        Key-value pairs attached to every event this logger (and every
        logger derived from it via :meth:`bind`) emits.
    """

    __slots__ = ("_logger", "_context")

    def __init__(
        self, logger: logging.Logger, context: Optional[Mapping[str, Any]] = None
    ) -> None:
        self._logger = logger
        self._context: Dict[str, Any] = dict(context or {})

    @property
    def name(self) -> str:
        """Name of the underlying stdlib logger."""
        return self._logger.name

    @property
    def context(self) -> Dict[str, Any]:
        """Copy of the bound context (mutating it does not affect events)."""
        return dict(self._context)

    # -- context ------------------------------------------------------------

    def bind(self, **ctx: Any) -> "StructLogger":
        """A new logger with ``ctx`` merged over the current context."""
        merged = dict(self._context)
        merged.update(ctx)
        return StructLogger(self._logger, merged)

    # -- emission -----------------------------------------------------------

    def log(self, level: int, event: str, **fields: Any) -> None:
        """Emit ``event`` at ``level`` with context + ``fields`` as JSON."""
        if not self._logger.isEnabledFor(level):
            return
        payload: Dict[str, Any] = {
            "ts": _utc_timestamp(),
            "level": logging.getLevelName(level).lower(),
            "logger": self._logger.name,
            "event": event,
        }
        # Events emitted inside an active span carry the trace identity, so
        # the JSON stream can be joined against the ledger's span records.
        payload.update(trace_fields())
        for source in (self._context, fields):
            for key, value in source.items():
                payload[key] = _json_safe(value)
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
        self._logger.log(level, "%s", line)

    def debug(self, event: str, **fields: Any) -> None:
        self.log(logging.DEBUG, event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log(logging.INFO, event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log(logging.WARNING, event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log(logging.ERROR, event, **fields)


def get_struct_logger(name: Optional[str] = None, **context: Any) -> StructLogger:
    """A :class:`StructLogger` namespaced under the ``repro`` hierarchy.

    Parameters
    ----------
    name:
        Optional child name (e.g. ``"runner.scheduler"``).
    context:
        Initial bound context, as :meth:`StructLogger.bind` would add it.
    """
    if name:
        logger = logging.getLogger(f"{_LIBRARY_LOGGER_NAME}.{name}")
    else:
        logger = logging.getLogger(_LIBRARY_LOGGER_NAME)
    return StructLogger(logger, context)


def configure_structured_logging(level: int = logging.INFO, stream=None) -> logging.Logger:
    """Attach a raw JSON-lines handler to the ``repro`` logger.

    The handler prints each record's message verbatim (one JSON object per
    line, no prefix) so the output is directly machine-parseable.  Safe to
    call multiple times: the previously installed structured handler is
    replaced, not duplicated.  Returns the library logger.
    """
    logger = logging.getLogger(_LIBRARY_LOGGER_NAME)
    logger.setLevel(level)
    stream = stream if stream is not None else sys.stderr
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_struct_handler", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter("%(message)s"))
    handler._repro_struct_handler = True
    logger.addHandler(handler)
    return logger


def configure_from_env(stream=None) -> Optional[logging.Logger]:
    """Honor ``REPRO_LOG_JSON`` / ``REPRO_LOG_LEVEL``; no-op when unset.

    The CLI calls this on startup so ``REPRO_LOG_JSON=1 repro run-all ...``
    streams every scheduler/server event as JSON lines on stderr without
    any code change.  Returns the configured logger, or ``None`` when the
    environment does not ask for structured output.
    """
    flag = os.environ.get(LOG_JSON_ENV, "").strip().lower()
    if flag in ("", "0", "false", "no", "off"):
        return None
    level_name = os.environ.get(LOG_LEVEL_ENV, "info").strip().lower()
    level = _LEVELS.get(level_name, logging.INFO)
    return configure_structured_logging(level=level, stream=stream)

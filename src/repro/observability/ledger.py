"""Persistent append-only execution ledger with lineage.

Every runner job and serving batch is appended to a JSONL ledger under
``~/.cache/repro/ledger/`` (one JSON object per line), so a deployment's
full execution history — *which* artifact at *which* version, on *which*
backend, under *which* config, with *what* outcome — survives the process
and is queryable after the fact (``repro ledger list|show|tail``).

Durability hygiene matches :class:`~repro.runner.cache.ResultCache`:

* appends open the file ``O_APPEND`` and write one complete line in a
  single ``os.write`` call, so concurrent writers (scheduler + serving
  threads, even separate processes) never interleave *within* a line;
* readers skip truncated or corrupt lines instead of failing, so a crash
  mid-append costs at most that one entry;
* the directory is created lazily on the first append and an unwritable
  ledger degrades to a no-op rather than failing the job it records.

The ledger is deliberately schema-light: entries are plain dictionaries
with a ``kind`` discriminator, and the helpers :func:`job_entry` /
:func:`artifact_lineage` assemble the canonical lineage fields for the two
entry kinds the stack emits today.  Entries appended inside an active trace
(see :mod:`repro.observability.tracing`) are stamped with the trace/span
ids, and ``kind="span"`` entries make the ledger a queryable trace store.

Long-lived deployments bound the ledger's footprint with *rotation*: when
the active file exceeds ``max_bytes`` or its oldest entry exceeds
``max_age_s``, it is renamed to a timestamped segment and a fresh active
file starts; only the newest ``max_segments`` segments are kept, so disk
usage stays under ``max_segments * max_bytes`` plus one active file.
:meth:`RunLedger.compact` squashes repeated cache/manifest-served re-runs
of the same job into one entry with a ``repeats`` count (lineage preserved).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

import repro
from repro.observability.structlog import get_struct_logger
from repro.observability.tracing import trace_fields

PathLike = Union[str, Path]

_log = get_struct_logger("observability.ledger")

#: Environment variable overriding the default ledger location.
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"

#: Environment variables overriding the rotation knobs.
LEDGER_MAX_BYTES_ENV = "REPRO_LEDGER_MAX_BYTES"
LEDGER_MAX_AGE_ENV = "REPRO_LEDGER_MAX_AGE_S"
LEDGER_MAX_SEGMENTS_ENV = "REPRO_LEDGER_MAX_SEGMENTS"

#: Entry kinds written by the stack.
KIND_JOB = "job"
KIND_SERVING_BATCH = "serving_batch"
KIND_SERVING_SHARD = "serving_shard"
KIND_SPAN = "span"

#: Ledger file name inside the ledger directory.
LEDGER_FILENAME = "ledger.jsonl"

#: Rotated segments: ``ledger-<unix_millis>.jsonl``, sortable by name.
_SEGMENT_PATTERN = re.compile(r"^ledger-(\d{10,17})\.jsonl$")

#: Segments kept after a rotation unless configured otherwise.
DEFAULT_MAX_SEGMENTS = 8

_VERSION_DIR = re.compile(r"^v\d{1,9}$")


def default_ledger_root() -> Path:
    """The default ledger directory.

    ``$REPRO_LEDGER_DIR`` if set, else ``$XDG_CACHE_HOME/repro/ledger``,
    else ``~/.cache/repro/ledger``.
    """
    env = os.environ.get(LEDGER_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "ledger"


def config_hash(config: Any) -> str:
    """Short content hash of a configuration object.

    Accepts anything with a ``to_dict()`` method (e.g.
    :class:`~repro.core.config.SpikeDynConfig`) or a plain mapping; the
    digest is over the canonical sorted JSON, truncated to 16 hex chars —
    enough to distinguish configs, short enough for log lines.
    """
    if hasattr(config, "to_dict"):
        data = config.to_dict()
    else:
        data = dict(config)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def artifact_lineage(artifact: Any) -> Dict[str, Any]:
    """Lineage fields of a served model artifact.

    Works off the duck-typed attributes of
    :class:`~repro.serving.artifacts.ModelArtifact` (``path``,
    ``model_name``, ``backend``, ``config``, ``schema_version``).  Registry
    paths (``<root>/<name>/v000N``) yield a proper artifact name/version;
    a plain save directory reports its directory name with version ``None``.
    """
    path = Path(getattr(artifact, "path", "."))
    version: Optional[str] = None
    name = path.name
    if _VERSION_DIR.match(path.name) and path.parent.name:
        version = path.name
        name = path.parent.name
    config = getattr(artifact, "config", None)
    return {
        "artifact_name": name,
        "artifact_version": version,
        "artifact_path": str(path),
        "model": getattr(artifact, "model_name", None),
        "backend": getattr(artifact, "backend", None),
        "schema_version": getattr(artifact, "schema_version", None),
        "config_hash": config_hash(config) if config is not None else None,
    }


def job_entry(job: Any, record: Any, outcome: Optional[str] = None) -> Dict[str, Any]:
    """Canonical ledger entry for one runner job.

    Parameters
    ----------
    job:
        The :class:`~repro.runner.jobs.JobSpec` (duck-typed: ``key()``,
        ``experiment``, ``seed``, ``scale``).
    record:
        The terminal :class:`~repro.runner.manifest.JobRecord`.
    outcome:
        Override for the recorded outcome; defaults to ``record.source``
        for cache/manifest shortcuts and ``record.status`` for executed
        jobs — so a cache hit is recorded as ``"cached"``, not skipped.
    """
    source = getattr(record, "source", "run")
    if outcome is None:
        if source == "run":
            outcome = record.status
        elif source == "cache":
            outcome = "cached"
        else:
            outcome = "resumed"
    scale = dataclasses.asdict(job.scale) if dataclasses.is_dataclass(job.scale) else {}
    return {
        "kind": KIND_JOB,
        "key": job.key(),
        "experiment": job.experiment,
        "seed": job.seed,
        "config_hash": config_hash(scale),
        "outcome": outcome,
        "status": record.status,
        "source": source,
        "elapsed_s": float(getattr(record, "elapsed", 0.0)),
    }


class RunLedger:
    """Append-only JSONL ledger of jobs and serving batches.

    Parameters
    ----------
    root:
        Ledger directory; defaults to :func:`default_ledger_root`.  The
        ledger file is ``<root>/ledger.jsonl``, created lazily on the
        first append.
    strict:
        When true, append failures raise instead of degrading to a no-op
        (tests use this; production recording must never fail a job).
    max_bytes, max_age_s:
        Rotation triggers for the active file: byte size before an append,
        and age of its oldest entry.  ``None`` (the default) reads
        ``$REPRO_LEDGER_MAX_BYTES`` / ``$REPRO_LEDGER_MAX_AGE_S``; unset
        means that trigger is off.
    max_segments:
        Rotated segments kept on disk (oldest dropped beyond it); ``None``
        reads ``$REPRO_LEDGER_MAX_SEGMENTS``, default 8.
    """

    def __init__(self, root: Optional[PathLike] = None, *, strict: bool = False,
                 max_bytes: Optional[int] = None,
                 max_age_s: Optional[float] = None,
                 max_segments: Optional[int] = None) -> None:
        self.root = Path(root) if root is not None else default_ledger_root()
        self.strict = strict
        self.max_bytes = _resolve_limit(max_bytes, LEDGER_MAX_BYTES_ENV, int)
        self.max_age_s = _resolve_limit(max_age_s, LEDGER_MAX_AGE_ENV, float)
        segments = _resolve_limit(max_segments, LEDGER_MAX_SEGMENTS_ENV, int)
        self.max_segments = DEFAULT_MAX_SEGMENTS if segments is None else segments
        self._degraded_warned = False

    @property
    def path(self) -> Path:
        """The active ledger file (whether or not it exists yet)."""
        return self.root / LEDGER_FILENAME

    def segments(self) -> List[Path]:
        """Rotated segment files, oldest first (the active file excluded)."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        found = [name for name in names if _SEGMENT_PATTERN.match(name)]
        return [self.root / name for name in sorted(found)]

    # -- writing -------------------------------------------------------------

    def append(self, entry: Dict[str, Any], **fields: Any) -> Optional[Dict[str, Any]]:
        """Append one entry (plus ``fields``) as a single JSONL line.

        Timestamp (``ts``, unix seconds) and package version are stamped
        automatically unless already present; inside an active trace the
        trace/span ids are stamped too.  Returns the full entry as written,
        or ``None`` when recording failed and ``strict`` is off (the first
        such degradation emits one structured warning event).
        """
        full = dict(entry)
        full.update(fields)
        full.setdefault("ts", time.time())
        full.setdefault("version", repro.__version__)
        for key, value in trace_fields().items():
            full.setdefault(key, value)
        line = json.dumps(full, sort_keys=True, separators=(",", ":"), default=str) + "\n"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._maybe_rotate(len(line))
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                # One write() of one complete line: concurrent O_APPEND
                # writers serialize at the file offset, so lines never
                # interleave within each other.
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
        except OSError as error:
            if self.strict:
                raise
            # Degrade to a no-op, but never *silently*: one warning per
            # ledger instance names the path and the failure, so an
            # unwritable volume is diagnosable from the event stream.
            if not self._degraded_warned:
                self._degraded_warned = True
                _log.warning("ledger_degraded", path=str(self.path),
                             error=f"{type(error).__name__}: {error}")
            return None
        return full

    def append_many(self, entries: Sequence[Dict[str, Any]]) -> Optional[List[Dict[str, Any]]]:
        """Append several entries with one ``write`` call.

        Each entry is stamped exactly as :meth:`append` stamps it, but the
        serialized lines land in a single ``os.write`` of complete lines —
        O_APPEND keeps concurrent writers from interleaving *within* the
        block, and the per-append open/write/close syscall cost is paid
        once per batch instead of once per entry.  Returns the entries as
        written, or ``None`` on a non-strict recording failure.
        """
        if not entries:
            return []
        stamped: List[Dict[str, Any]] = []
        traced = trace_fields()
        for entry in entries:
            full = dict(entry)
            full.setdefault("ts", time.time())
            full.setdefault("version", repro.__version__)
            for key, value in traced.items():
                full.setdefault(key, value)
            stamped.append(full)
        block = "".join(
            json.dumps(full, sort_keys=True, separators=(",", ":"), default=str) + "\n"
            for full in stamped
        ).encode("utf-8")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._maybe_rotate(len(block))
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, block)
            finally:
                os.close(fd)
        except OSError as error:
            if self.strict:
                raise
            if not self._degraded_warned:
                self._degraded_warned = True
                _log.warning("ledger_degraded", path=str(self.path),
                             error=f"{type(error).__name__}: {error}")
            return None
        return stamped

    # -- rotation ------------------------------------------------------------

    def _maybe_rotate(self, incoming_bytes: int) -> None:
        """Rotate the active file when a size/age trigger fires.

        Called with the root directory known to exist.  Rotation is a
        single ``rename`` — concurrent writers racing it either win the
        rename or see ``FileNotFoundError`` and carry on appending to the
        fresh active file, so no entry is ever lost to a rotation race.
        """
        if self.max_bytes is None and self.max_age_s is None:
            return
        try:
            stat = self.path.stat()
        except OSError:
            return
        rotate = False
        if self.max_bytes is not None and stat.st_size + incoming_bytes > self.max_bytes:
            rotate = stat.st_size > 0
        if not rotate and self.max_age_s is not None:
            oldest = self._oldest_ts()
            if oldest is not None and time.time() - oldest > self.max_age_s:
                rotate = True
        if not rotate:
            return
        # Bump the timestamp past any existing segment: two rotations within
        # the same millisecond must not rename onto (and silently clobber)
        # the same segment file.
        millis = int(time.time() * 1000)
        segment = self.root / f"ledger-{millis:013d}.jsonl"
        while segment.exists():
            millis += 1
            segment = self.root / f"ledger-{millis:013d}.jsonl"
        try:
            os.rename(self.path, segment)
        except OSError:
            return  # a concurrent writer rotated first
        self._prune_segments()

    def _oldest_ts(self) -> Optional[float]:
        """Timestamp of the active file's first well-formed entry."""
        try:
            with open(self.path, "r", encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(entry, dict) and isinstance(
                        entry.get("ts"), (int, float)
                    ):
                        return float(entry["ts"])
                    return None
        except OSError:
            return None
        return None

    def _prune_segments(self) -> None:
        segments = self.segments()
        for stale in segments[: max(0, len(segments) - self.max_segments)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent prune
                pass

    # -- reading -------------------------------------------------------------

    def entries(self, kind: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        """Yield every well-formed entry in append order.

        Rotated segments are read oldest-first, then the active file, so the
        ordering survives rotation.  Corrupt or truncated lines (crash
        mid-append, foreign garbage) are skipped; ``kind`` filters on the
        entry's ``kind`` field.
        """
        for path in [*self.segments(), self.path]:
            try:
                handle = open(path, "r", encoding="utf-8", errors="replace")
            except OSError:
                continue
            with handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue
                    if not isinstance(entry, dict):
                        continue
                    if kind is not None and entry.get("kind") != kind:
                        continue
                    yield entry

    def tail(self, n: int = 10, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """The last ``n`` well-formed entries, oldest first."""
        if n <= 0:
            return []
        window: List[Dict[str, Any]] = []
        for entry in self.entries(kind=kind):
            window.append(entry)
            if len(window) > n:
                window.pop(0)
        return window

    def find(self, key_prefix: str) -> List[Dict[str, Any]]:
        """Every entry whose ``key`` starts with ``key_prefix``."""
        matches: List[Dict[str, Any]] = []
        for entry in self.entries():
            if str(entry.get("key", "")).startswith(key_prefix):
                matches.append(entry)
        return matches

    def count(self) -> int:
        """Number of well-formed entries."""
        return sum(1 for _ in self.entries())

    def stats(self) -> Dict[str, Any]:
        """Summary: path, entry/kind counts, segments, bytes on disk."""
        kinds: Dict[str, int] = {}
        entries = 0
        for entry in self.entries():
            entries += 1
            kind = str(entry.get("kind", "?"))
            kinds[kind] = kinds.get(kind, 0) + 1
        segments = self.segments()
        size = 0
        for path in [*segments, self.path]:
            try:
                size += path.stat().st_size
            except OSError:
                pass
        return {"path": str(self.path), "entries": entries, "kinds": kinds,
                "bytes": size, "segments": len(segments)}

    def clear(self) -> int:
        """Remove the ledger file and all segments; returns entries dropped."""
        dropped = self.count()
        for path in [*self.segments(), self.path]:
            try:
                path.unlink()
            except OSError:
                pass
        return dropped

    # -- compaction ----------------------------------------------------------

    def compact(self) -> Dict[str, Any]:
        """Rewrite the ledger, squashing repeated cache-served re-runs.

        Every *executed* entry (and every span, serving batch, and shard
        transition) is kept verbatim; ``cached``/``resumed`` job entries —
        the bulk of a long deployment's growth, since each re-run appends
        one per job — are deduplicated to the most recent entry per content
        key, stamped with a ``repeats`` count so the lineage still records
        how often the result was served.

        The survivors are written to a temporary file and atomically
        renamed over the active file; all rotated segments are then
        removed.  Entries appended concurrently between the snapshot read
        and the rename are lost — run compaction from the CLI
        (``repro ledger compact``), not under live writers.  Returns a
        summary: entries/bytes before and after.
        """
        before = self.stats()
        survivors: List[Dict[str, Any]] = []
        latest_shortcut: Dict[str, Dict[str, Any]] = {}
        shortcut_counts: Dict[str, int] = {}
        for entry in self.entries():
            if (entry.get("kind") == KIND_JOB
                    and entry.get("outcome") in ("cached", "resumed")
                    and entry.get("key")):
                key = str(entry["key"])
                if key not in latest_shortcut:
                    # First sighting: keep its slot in the overall order.
                    survivors.append(entry)
                latest_shortcut[key] = entry
                shortcut_counts[key] = shortcut_counts.get(key, 0) + 1
                continue
            survivors.append(entry)
        for index, entry in enumerate(survivors):
            key = entry.get("key")
            if (entry.get("kind") == KIND_JOB and key in latest_shortcut
                    and entry.get("outcome") in ("cached", "resumed")):
                newest = dict(latest_shortcut[str(key)])
                repeats = shortcut_counts[str(key)]
                if repeats > 1:
                    newest["repeats"] = repeats
                survivors[index] = newest
        tmp = self.root / f"{LEDGER_FILENAME}.compact.{os.getpid()}.tmp"
        self.root.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            for entry in survivors:
                handle.write(json.dumps(entry, sort_keys=True,
                                        separators=(",", ":"), default=str))
                handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        for segment in self.segments():
            try:
                segment.unlink()
            except OSError:  # pragma: no cover - concurrent removal
                pass
        after = self.stats()
        return {
            "path": str(self.path),
            "entries_before": before["entries"],
            "entries_after": after["entries"],
            "bytes_before": before["bytes"],
            "bytes_after": after["bytes"],
            "segments_removed": before["segments"],
        }


class SpanBuffer:
    """Span sink that batches appends into one ledger write.

    :func:`~repro.observability.tracing.record_span` duck-types its sink on
    ``.append``; a buffer collects the spans of one serving micro-batch and
    lands them with a single :meth:`RunLedger.append_many` call on
    :meth:`flush` — one file append per batch instead of one per span, which
    is what keeps the traced serving path within its overhead budget.
    Thread-confined by design: each pool worker builds its own buffer per
    batch, so no locking is needed.
    """

    def __init__(self, ledger: RunLedger) -> None:
        self._ledger = ledger
        self._entries: List[Dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, entry: Dict[str, Any], **fields: Any) -> Dict[str, Any]:
        """Buffer one entry (same signature as :meth:`RunLedger.append`)."""
        full = dict(entry)
        full.update(fields)
        self._entries.append(full)
        return full

    def flush(self) -> Optional[List[Dict[str, Any]]]:
        """Write every buffered entry in one append; clears the buffer."""
        if not self._entries:
            return []
        entries, self._entries = self._entries, []
        return self._ledger.append_many(entries)


def _resolve_limit(value, env_name: str, cast):
    """An explicit limit, else the environment's, else ``None``."""
    if value is not None:
        return cast(value)
    raw = os.environ.get(env_name, "").strip()
    if not raw:
        return None
    try:
        return cast(raw)
    except ValueError:
        return None

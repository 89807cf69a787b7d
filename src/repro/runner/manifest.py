"""Run manifest: the durable record of one reproduction run.

The scheduler appends the outcome of every job to a single JSON manifest
(atomic rewrite after each completion), so an interrupted run can be resumed:
jobs whose manifest status is ``completed`` are skipped, everything else
(missing, ``failed``, ``timeout``) is (re-)executed.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

import repro
from repro.utils.serialization import atomic_write_json

PathLike = Union[str, Path]

#: Terminal job states recorded in the manifest.
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"

#: Where a completed result came from.
SOURCE_RUN = "run"
SOURCE_CACHE = "cache"
SOURCE_MANIFEST = "manifest"


@dataclass
class JobRecord:
    """Outcome of one job, as stored in the manifest and the result cache."""

    key: str
    experiment: str
    output: str
    status: str
    seed: int = 0
    elapsed: float = 0.0
    source: str = SOURCE_RUN
    report: Optional[str] = None
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        known = {name for name in cls.__dataclass_fields__}
        return cls(**{name: value for name, value in data.items() if name in known})

    @property
    def ok(self) -> bool:
        return self.status == STATUS_COMPLETED


class RunManifest:
    """JSON manifest of a run, written atomically after every job.

    Parameters
    ----------
    path:
        Manifest file location (conventionally ``<out>/manifest.json``).
    metadata:
        Run-level metadata stored alongside the job records (scale preset,
        worker count, ...).
    """

    def __init__(self, path: PathLike, metadata: Optional[Dict[str, Any]] = None) -> None:
        self.path = Path(path)
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self.metadata.setdefault("version", repro.__version__)
        self.metadata.setdefault("created", time.strftime("%Y-%m-%dT%H:%M:%S"))
        self.records: Dict[str, JobRecord] = {}

    @classmethod
    def load(cls, path: PathLike) -> "RunManifest":
        """Read a manifest back from disk.

        Raises
        ------
        FileNotFoundError
            If ``path`` does not exist.
        ValueError
            If the file is not a manifest.
        """
        path = Path(path)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict) or "jobs" not in data:
            raise ValueError(f"{path} is not a run manifest")
        manifest = cls(path, metadata=data.get("metadata", {}))
        for key, record in data["jobs"].items():
            manifest.records[key] = JobRecord.from_dict(record)
        return manifest

    @classmethod
    def load_or_create(
        cls, path: PathLike, metadata: Optional[Dict[str, Any]] = None
    ) -> "RunManifest":
        """Load an existing manifest for resumption, or start a fresh one.

        On load, ``metadata`` is merged over the stored metadata so the
        manifest records the resuming run's parameters (seed, workers, ...)
        rather than stale values from the interrupted run; the original
        ``created`` timestamp survives unless explicitly overridden.
        """
        try:
            manifest = cls.load(path)
        except (FileNotFoundError, ValueError, json.JSONDecodeError):
            return cls(path, metadata=metadata)
        manifest.metadata.update(metadata or {})
        return manifest

    def update(self, record: JobRecord, save: bool = True) -> None:
        """Store ``record`` (and by default persist the manifest)."""
        self.records[record.key] = record
        if save:
            self.save()

    def is_complete(self, key: str) -> bool:
        record = self.records.get(key)
        return record is not None and record.ok

    def counts(self) -> Dict[str, int]:
        """``{status: count}`` over every record."""
        totals: Dict[str, int] = {}
        for record in self.records.values():
            totals[record.status] = totals.get(record.status, 0) + 1
        return totals

    def to_dict(self) -> Dict[str, Any]:
        jobs: Dict[str, Any] = {}
        for key, record in sorted(self.records.items()):
            data = record.to_dict()
            # Report text lives in the result cache and the report files; the
            # manifest only tracks outcomes, so keep it lightweight.
            data.pop("report", None)
            jobs[key] = data
        return {"metadata": self.metadata, "jobs": jobs}

    def save(self) -> Path:
        """Atomically write the manifest to :attr:`path`."""
        return atomic_write_json(self.to_dict(), self.path)

"""Job specifications and content-addressed job keys.

A :class:`JobSpec` is one independent unit of work of a reproduction run: one
experiment driver at one :class:`~repro.experiments.common.ExperimentScale`
with one seed and optional driver overrides.  Its :meth:`JobSpec.key` is a
SHA-256 digest of the canonical JSON payload — driver name, every scale
field (including the seed), the overrides, and the package version — so
two jobs share a cache entry exactly when they would compute the same
report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import repro
from repro.backends import drop_legacy_backend
from repro.experiments.common import ExperimentScale

#: ExperimentScale fields that are tuples and come back from JSON as lists.
_SCALE_TUPLE_FIELDS: Tuple[str, ...] = (
    "network_sizes",
    "class_sequence",
    "nondynamic_checkpoints",
)


def scale_to_dict(scale: ExperimentScale) -> Dict[str, Any]:
    """JSON-safe dictionary of every scale field."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(scale).items()
    }


def scale_from_dict(data: Mapping[str, Any]) -> ExperimentScale:
    """Rebuild an :class:`ExperimentScale` from :func:`scale_to_dict` output.

    A legacy ``backend`` key (written before scales stopped recording one)
    is checked and dropped.
    """
    fields = dict(data)
    drop_legacy_backend(fields)
    for name in _SCALE_TUPLE_FIELDS:
        if name in fields:
            fields[name] = tuple(fields[name])
    return ExperimentScale(**fields)


@dataclass(frozen=True)
class JobSpec:
    """One independent work unit of a reproduction run.

    Attributes
    ----------
    experiment:
        Registry name of the driver (``"fig5"``), or — for testing and ad-hoc
        workloads — a ``"module:callable"`` reference resolved by the worker.
    scale:
        Full experiment scale, including the job's seed (``scale.seed``).
    overrides:
        JSON-serializable keyword arguments forwarded to the driver.  They
        are part of the cache key, so two jobs with different overrides never
        share a cache entry.
    output:
        Report filename stem (``<output>.txt``); defaults to a sanitized
        version of ``experiment``.
    timeout:
        Per-job wall-clock budget in seconds (``None`` = no limit).  Not part
        of the cache key: the budget changes when a job is killed, not what
        it computes.
    """

    experiment: str
    scale: ExperimentScale
    overrides: Mapping[str, Any] = field(default_factory=dict)
    output: Optional[str] = None
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ValueError("experiment must not be empty")
        try:
            json.dumps(dict(self.overrides), sort_keys=True)
        except TypeError as error:
            raise TypeError(
                f"overrides of job {self.experiment!r} must be JSON-serializable: {error}"
            ) from None

    @property
    def seed(self) -> int:
        """The seed every stochastic component of this job derives from."""
        return self.scale.seed

    @property
    def output_stem(self) -> str:
        """Report filename stem (without extension)."""
        if self.output:
            return self.output
        return self.experiment.replace(":", "_").replace("-", "_")

    def payload(self) -> Dict[str, Any]:
        """Canonical JSON-safe description of *what this job computes*."""
        return {
            "experiment": self.experiment,
            "scale": scale_to_dict(self.scale),
            "seed": self.seed,
            "overrides": dict(self.overrides),
            "version": repro.__version__,
        }

    def key(self) -> str:
        """Content-addressed job key (SHA-256 hex digest of the payload)."""
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-safe serialization (payload plus scheduling fields)."""
        data = self.payload()
        data["output"] = self.output_stem
        data["timeout"] = self.timeout
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            experiment=data["experiment"],
            scale=scale_from_dict(data["scale"]),
            overrides=dict(data.get("overrides", {})),
            output=data.get("output"),
            timeout=data.get("timeout"),
        )

    def with_seed(self, seed: int) -> "JobSpec":
        """Copy of this job reseeded to ``seed``."""
        return JobSpec(
            experiment=self.experiment,
            scale=self.scale.replace(seed=seed),
            overrides=dict(self.overrides),
            output=self.output,
            timeout=self.timeout,
        )

"""Model artifact registry: versioned, self-describing saved models.

An *artifact* is the directory layout written by
:meth:`~repro.models.base.UnsupervisedDigitClassifier.save` — ``state.npz``
(learned input weights, neuron-label assignments, adaptive threshold
``theta``) next to ``model.json`` (schema version, full configuration, model
identity, encoder spec).  ``state.npz`` holds stored (uncompressed) members,
so every replica start, shard respawn and registry roll-forward reads its
arrays without inflating them; an artifact saved with compressed members,
the format before that, loads bit-identically.  This module completes that
layout into a serving story:

* :func:`load_artifact` reads and *validates* an artifact without needing to
  know which model class or sizes produced it — the artifact is
  self-describing, so ``repro serve <dir>`` and ``repro evaluate <dir>``
  take nothing but the path;
* :meth:`ModelArtifact.build_model` reconstructs the trained classifier of
  the stored model class and configuration, bit-for-bit (weights, theta,
  assignments).  It is the one way to restore a saved model, and this
  module is the one reader of the format;
* :class:`ArtifactRegistry` stores artifacts under ``<root>/<name>/v<NNNN>``
  with monotonically increasing versions, so a serving deployment can roll
  forward/back by version number.

Every validation failure raises
:class:`~repro.utils.serialization.ArtifactError` with the expected-vs-found
details; nothing is ever silently mis-loaded.
"""

from __future__ import annotations

import json
import re
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.backends import DEFAULT_BACKEND, BackendLike, normalize_backend_name
from repro.core.config import SpikeDynConfig
from repro.models import MODEL_CLASSES
from repro.models.base import (
    ARTIFACT_METADATA_FILE,
    ARTIFACT_SCHEMA_VERSION,
    ARTIFACT_STATE_FILE,
    UnsupervisedDigitClassifier,
)
from repro.utils.serialization import ArtifactError, load_arrays, load_json

PathLike = Union[str, Path]

_VERSION_DIR = re.compile(r"^v(\d{4,})$")


@dataclass
class ModelArtifact:
    """A loaded-and-validated model artifact.

    Attributes
    ----------
    path:
        Directory the artifact was loaded from.
    schema_version:
        Artifact layout version (``1`` for legacy pre-serving saves).
    model_name:
        Registry key of the model class (``baseline`` / ``asp`` /
        ``spikedyn``).
    config:
        The full hyperparameter bundle the model was trained with.
    meta:
        The model's ``describe()`` dictionary at save time.
    encoder:
        Self-describing encoder spec (type, duration, dt, rate constants);
        empty for legacy artifacts.
    arrays:
        The stored state arrays (``input_weights``, ``assignments``, and
        ``theta`` when present).
    backend:
        Kernel set the model was saved under, with retired names resolved
        through :data:`repro.backends.BACKEND_ALIASES` (always ``"sparse"``).
        The arrays are backend-agnostic.
    """

    path: Path
    schema_version: int
    model_name: str
    config: SpikeDynConfig
    meta: Dict[str, object]
    encoder: Dict[str, object]
    arrays: Dict[str, np.ndarray]
    backend: str = DEFAULT_BACKEND

    @property
    def n_input(self) -> int:
        return self.config.n_input

    @property
    def n_exc(self) -> int:
        return self.config.n_exc

    def describe(self) -> Dict[str, object]:
        """Small JSON-safe summary (for the ``repro serve`` banner and reports)."""
        return {
            "path": str(self.path),
            "schema_version": self.schema_version,
            "model": self.model_name,
            "n_input": self.n_input,
            "n_exc": self.n_exc,
            "samples_trained": self.meta.get("samples_trained", 0),
            "backend": self.backend,
            "encoder": dict(self.encoder),
        }

    def build_model(self, *, backend: BackendLike = None
                    ) -> UnsupervisedDigitClassifier:
        """Reconstruct the trained classifier from this artifact.

        A fresh network of the stored model class is built from the stored
        configuration and its learned state is overwritten with the stored
        arrays, so repeated calls return *independent* model instances with
        bit-identical weights, assignments, and theta — exactly what the
        replica pool needs to shard load across workers.

        ``backend`` (a name or a :class:`~repro.backends.Backend`
        instance) is passed to the model constructor; the default is the
        one shared kernel set, and the stored state is backend-agnostic.
        """
        if self.model_name not in MODEL_CLASSES:
            known = ", ".join(sorted(MODEL_CLASSES))
            raise ArtifactError(
                f"artifact at {self.path} names unknown model "
                f"{self.model_name!r}; known models: {known}"
            )
        model = MODEL_CLASSES[self.model_name](self.config, backend=backend)
        # The arrays were validated at load time and the model is built
        # from the stored config, so the in-memory state applies directly —
        # no disk round-trip, and the artifact directory may since be gone.
        model.input_weights[:] = self.arrays["input_weights"]
        model.assignments = self.arrays["assignments"].astype(int)
        excitatory = model.network.group("excitatory")
        if "theta" in self.arrays and hasattr(excitatory, "theta"):
            excitatory.theta[:] = self.arrays["theta"]
        model.samples_trained = int(self.meta.get("samples_trained", 0))
        return model


def load_artifact(directory: PathLike) -> ModelArtifact:
    """Load and validate the artifact stored in ``directory``.

    Raises
    ------
    ArtifactError
        If the directory is not an artifact, its schema version is newer
        than supported, its configuration is invalid, or any stored array is
        missing or mis-shaped for the declared architecture.
    """
    directory = Path(directory)
    metadata, arrays, schema_version, backend = read_artifact_dir(directory)
    try:
        config = SpikeDynConfig.from_dict(metadata["config"])
    except (TypeError, ValueError) as error:
        raise ArtifactError(
            f"{directory} carries an invalid configuration: {error}"
        ) from error
    meta = dict(metadata.get("meta", {}))
    model_name = str(meta.get("name", "spikedyn"))
    validate_artifact_arrays(
        arrays,
        n_input=config.n_input,
        n_exc=config.n_exc,
        schema_version=schema_version,
        source=directory,
    )
    return ModelArtifact(
        path=directory,
        schema_version=schema_version,
        model_name=model_name,
        config=config,
        meta=meta,
        encoder=dict(metadata.get("encoder", {})),
        arrays=arrays,
        backend=backend,
    )


def read_artifact_dir(directory: Path):
    """Read an artifact directory's ``(metadata, arrays, schema_version,
    backend)``, mapping missing or corrupt files, unsupported schema
    versions and unknown kernel-set names to :class:`ArtifactError`."""
    try:
        arrays = load_arrays(directory / ARTIFACT_STATE_FILE)
        metadata = load_json(directory / ARTIFACT_METADATA_FILE)
    except FileNotFoundError as error:
        raise ArtifactError(
            f"{directory} is not a model artifact: {error}"
        ) from error
    except (OSError, zipfile.BadZipFile, json.JSONDecodeError,
            ValueError) as error:
        raise ArtifactError(
            f"{directory} holds a corrupt model artifact: {error}"
        ) from error
    if not isinstance(metadata, dict) or "config" not in metadata:
        raise ArtifactError(
            f"{directory / ARTIFACT_METADATA_FILE} has no 'config' section"
        )
    # Legacy (pre-serving) artifacts carry no schema_version field.
    schema_version = int(metadata.get("schema_version", 1))
    if schema_version > ARTIFACT_SCHEMA_VERSION:
        raise ArtifactError(
            f"{directory} uses artifact schema version {schema_version}, "
            f"but this library supports at most {ARTIFACT_SCHEMA_VERSION}"
        )
    backend = validate_artifact_backend(metadata,
                                        schema_version=schema_version,
                                        source=directory)
    return metadata, arrays, schema_version, backend


def validate_artifact_backend(metadata: Dict[str, object], *,
                              schema_version: int, source: object) -> str:
    """Check (and return) the kernel-set name recorded in an artifact.

    Schema v3 artifacts must name ``"sparse"`` or a retired name in
    :data:`repro.backends.BACKEND_ALIASES`, and the returned name is always
    ``"sparse"``; earlier schemas predate the field.  An unknown name is
    rejected like any other invalid configuration value.
    """
    backend = metadata.get("backend")
    if backend is None:
        if schema_version >= 3:
            raise ArtifactError(
                f"cannot load {source} (schema version {schema_version}): "
                "missing the 'backend' field"
            )
        return DEFAULT_BACKEND
    try:
        return normalize_backend_name(str(backend))
    except ValueError as error:
        raise ArtifactError(
            f"cannot load {source} (schema version {schema_version}): {error}"
        ) from None


def validate_artifact_arrays(arrays: Dict[str, np.ndarray], *, n_input: int,
                             n_exc: int, schema_version: int,
                             source: object) -> None:
    """Check that loaded state arrays match the declared architecture.

    Raises :class:`ArtifactError` naming every missing array and every
    expected-vs-found shape mismatch (instead of a bare ``KeyError`` or a
    numpy broadcast error mid-load).
    """
    expected = {
        "input_weights": (n_input, n_exc),
        "assignments": (n_exc,),
    }
    optional = {"theta": (n_exc,)}
    problems = []
    for key, shape in expected.items():
        if key not in arrays:
            problems.append(f"missing array {key!r} (expected shape {shape})")
        elif tuple(arrays[key].shape) != shape:
            problems.append(
                f"{key!r} has shape {tuple(arrays[key].shape)}, expected {shape}"
            )
    for key, shape in optional.items():
        if key in arrays and tuple(arrays[key].shape) != shape:
            problems.append(
                f"{key!r} has shape {tuple(arrays[key].shape)}, expected {shape}"
            )
    if problems:
        raise ArtifactError(
            f"cannot load {source} (schema version {schema_version}): "
            + "; ".join(problems)
        )


class ArtifactRegistry:
    """Versioned on-disk store of model artifacts.

    Layout: ``<root>/<name>/v0001``, ``<root>/<name>/v0002``, ... — one
    artifact directory per version, assigned monotonically by
    :meth:`publish`.  Loading without an explicit version returns the
    latest.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    # -- write ---------------------------------------------------------------

    def publish(self, model: UnsupervisedDigitClassifier,
                name: Optional[str] = None) -> Path:
        """Save ``model`` as the next version of ``name`` (default: its name)."""
        name = self._check_name(model.name if name is None else name)
        version = self.latest_version(name) + 1
        directory = self.root / name / f"v{version:04d}"
        return model.save(directory)

    # -- read ----------------------------------------------------------------

    def versions(self, name: str) -> List[int]:
        """Sorted list of the published versions of ``name``."""
        directory = self.root / self._check_name(name)
        if not directory.is_dir():
            return []
        found = []
        for child in directory.iterdir():
            match = _VERSION_DIR.match(child.name)
            if match and child.is_dir():
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_version(self, name: str) -> int:
        """Highest published version of ``name`` (0 when none exist)."""
        versions = self.versions(name)
        return versions[-1] if versions else 0

    def path_of(self, name: str, version: Optional[int] = None) -> Path:
        """Directory of ``name``'s ``version`` (default: the latest)."""
        name = self._check_name(name)
        if version is None:
            version = self.latest_version(name)
            if version == 0:
                raise ArtifactError(
                    f"registry at {self.root} has no artifact named {name!r}"
                )
        directory = self.root / name / f"v{int(version):04d}"
        if not directory.is_dir():
            raise ArtifactError(
                f"registry at {self.root} has no version {version} of {name!r} "
                f"(published: {self.versions(name) or 'none'})"
            )
        return directory

    def load(self, name: str, version: Optional[int] = None) -> ModelArtifact:
        """Load-and-validate ``name`` at ``version`` (default: the latest)."""
        return load_artifact(self.path_of(name, version))

    def list_artifacts(self) -> List[Tuple[str, List[int]]]:
        """All ``(name, versions)`` pairs in the registry, sorted by name."""
        if not self.root.is_dir():
            return []
        entries = []
        for child in sorted(self.root.iterdir()):
            if child.is_dir():
                versions = self.versions(child.name)
                if versions:
                    entries.append((child.name, versions))
        return entries

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _check_name(name: str) -> str:
        name = str(name)
        if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", name):
            raise ValueError(
                "artifact names must be alphanumeric plus '._-' "
                f"(got {name!r})"
            )
        return name

"""Shared model interface for unsupervised spiking digit classifiers.

A model owns a network, a spike encoder, and the evaluation read-out state
(per-neuron class assignments).  The three comparison partners of the paper
(baseline, ASP, SpikeDyn) differ only in the network architecture and the
learning rule they plug into this class.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.backends import DEFAULT_BACKEND, BackendLike, normalize_backend_name
from repro.core.config import SpikeDynConfig
from repro.datasets.streams import StreamSample
from repro.encoding.rate import PoissonRateEncoder
from repro.evaluation.labeling import assign_neuron_labels, predict_from_responses
from repro.evaluation.metrics import accuracy as accuracy_metric
from repro.snn.network import Network
from repro.snn.simulation import OperationCounter
from repro.utils.rng import ensure_rng
from repro.utils.serialization import (
    ArtifactError,
    load_arrays,
    load_json,
    save_arrays,
    save_json,
)

PathLike = Union[str, Path]

#: Number of digit classes in the (synthetic or real) MNIST task.
N_CLASSES = 10

#: Default number of samples advanced per vectorized engine step during
#: evaluation (see :meth:`UnsupervisedDigitClassifier.respond_batch`).
DEFAULT_EVAL_BATCH_SIZE = 32

#: Version of the on-disk artifact layout written by
#: :meth:`UnsupervisedDigitClassifier.save`.  Version 1 is the legacy layout
#: (no ``schema_version`` field, no encoder spec, no shape validation on
#: load); version 2 adds the self-describing metadata consumed by the
#: serving subsystem (:mod:`repro.serving.artifacts`); version 3 records the
#: name of the kernel set the model ran on (``backend`` key, checked against
#: the accepted names on load — the stored state itself is backend-agnostic).
ARTIFACT_SCHEMA_VERSION = 3

#: JSON metadata file of a saved model artifact.
ARTIFACT_METADATA_FILE = "model.json"

#: Array archive of a saved model artifact.
ARTIFACT_STATE_FILE = "state.npz"


def read_artifact_dir(directory: PathLike):
    """Read an artifact directory's ``(metadata, arrays, schema_version,
    backend)``.

    Shared by :meth:`UnsupervisedDigitClassifier.load_state` and
    :func:`repro.serving.artifacts.load_artifact` so both surfaces map
    missing/corrupt files, unsupported schema versions, and unknown compute
    backends to the same
    :class:`~repro.utils.serialization.ArtifactError`.
    """
    directory = Path(directory)
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
                              schema_version: int,
                              source: object = "artifact") -> str:
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


def validate_config_compatibility(stored: "SpikeDynConfig",
                                  current: "SpikeDynConfig", *,
                                  schema_version: int,
                                  source: object = "artifact") -> None:
    """Check that a stored configuration matches the target model's.

    Every field except ``seed`` must agree: the loaded weights and theta
    assume the stored neuron constants, encoder timing (``t_sim``/``dt``),
    and rate-coding parameters, so a mismatch silently degrades inference
    rather than failing.  ``seed`` only controls stochastic draws and may
    legitimately differ (e.g. evaluating a saved model on fresh samples).
    """
    mismatched = []
    for spec in dataclasses.fields(type(stored)):
        if spec.name == "seed":
            continue
        stored_value = getattr(stored, spec.name)
        current_value = getattr(current, spec.name)
        if stored_value != current_value:
            mismatched.append(
                f"{spec.name}: model has {current_value!r}, "
                f"artifact has {stored_value!r}"
            )
    if mismatched:
        raise ArtifactError(
            f"cannot load {source} (schema version {schema_version}): "
            "stored configuration is incompatible with this model — "
            + "; ".join(mismatched)
        )


def apply_artifact_state(model: "UnsupervisedDigitClassifier",
                         arrays: Dict[str, np.ndarray],
                         metadata: Dict[str, object]) -> None:
    """Overwrite ``model``'s learned state with validated artifact arrays.

    The single restore path shared by :meth:`UnsupervisedDigitClassifier.
    load_state` and :meth:`repro.serving.artifacts.ModelArtifact.
    build_model`; callers must have validated shapes first.
    """
    connection = model.network.connection("input_to_exc")
    connection.weights[:] = arrays["input_weights"]
    model.assignments = arrays["assignments"].astype(int)
    excitatory = model.network.group("excitatory")
    if "theta" in arrays and hasattr(excitatory, "theta"):
        excitatory.theta[:] = arrays["theta"]
    meta = metadata.get("meta", {})
    model.samples_trained = int(meta.get("samples_trained", 0))


def validate_artifact_arrays(arrays: Dict[str, np.ndarray], *, n_input: int,
                             n_exc: int, schema_version: int,
                             source: object = "artifact") -> None:
    """Check that loaded state arrays match the target architecture.

    Raises :class:`~repro.utils.serialization.ArtifactError` naming every
    missing array and every expected-vs-found shape mismatch (instead of a
    bare ``KeyError`` or a numpy broadcast error mid-load).
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


class UnsupervisedDigitClassifier:
    """Base class binding a network, an encoder, and the read-out together.

    Parameters
    ----------
    config:
        Hyperparameter bundle (sizes, timing, encoding, learning constants).
    network:
        The constructed spiking network; its input group must be named
        ``"input"`` and its excitatory group ``"excitatory"``.
    encoder:
        Spike encoder converting images into input spike trains; built from
        the configuration when omitted.
    name:
        Model identifier used in reports.
    eval_batch_size:
        Number of samples advanced per vectorized engine step during
        inference/evaluation (:meth:`respond_batch`).  ``None`` or ``1``
        falls back to the sequential per-sample loop.
    """

    def __init__(self, config: SpikeDynConfig, network: Network,
                 encoder: Optional[PoissonRateEncoder] = None,
                 name: str = "model",
                 eval_batch_size: Optional[int] = DEFAULT_EVAL_BATCH_SIZE) -> None:
        self.config = config
        self.network = network
        self.name = str(name)
        self.encoder = encoder if encoder is not None else PoissonRateEncoder(
            duration=config.t_sim,
            dt=config.dt,
            max_rate=config.max_rate,
            intensity_scale=config.intensity_scale,
            rng=ensure_rng(config.seed),
        )
        self.assignments = np.full(config.n_exc, -1, dtype=int)
        self.samples_trained = 0
        self.eval_batch_size = eval_batch_size

    # -- basic properties -----------------------------------------------------

    @property
    def n_exc(self) -> int:
        """Number of excitatory neurons."""
        return self.config.n_exc

    @property
    def n_input(self) -> int:
        """Number of input neurons (pixels)."""
        return self.config.n_input

    @property
    def counter(self) -> OperationCounter:
        """The network's cumulative operation counter."""
        return self.network.counter

    @property
    def backend_name(self) -> str:
        """Name of the kernel set the network runs on."""
        return self.network.backend_name

    def set_backend(self, backend: BackendLike) -> None:
        """Run the model's network on another kernel set (see
        :meth:`repro.snn.network.Network.set_backend`)."""
        self.network.set_backend(backend)

    @property
    def input_weights(self) -> np.ndarray:
        """The learned input→excitatory weight matrix (a live view)."""
        return self.network.connection("input_to_exc").weights

    def architecture_name(self) -> str:
        """Architecture identifier for the analytical estimators."""
        raise NotImplementedError

    # -- training and responses ------------------------------------------------

    def _check_image(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image, dtype=float)
        if image.size != self.n_input:
            raise ValueError(
                f"image has {image.size} pixels but the model expects {self.n_input}"
            )
        return image

    def _encode(self, image: np.ndarray) -> np.ndarray:
        return self.encoder.encode(self._check_image(image))

    def encode_batch(self, images: Sequence[np.ndarray]) -> np.ndarray:
        """Encode ``images`` into a ``(B, timesteps, n_input)`` spike train."""
        return self.encoder.encode_batch(
            [self._check_image(image) for image in images]
        )

    def train_sample(self, image: np.ndarray) -> np.ndarray:
        """Present one image with plasticity enabled; returns exc. spike counts."""
        result = self.network.run_sample(self._encode(image), learning=True)
        self.samples_trained += 1
        return result.counts("excitatory")

    def train_batch(self, images: Sequence[np.ndarray]) -> np.ndarray:
        """Train on a batch of images; returns exc. spike counts ``(B, n_exc)``.

        Plasticity is applied sequentially per sample (the engine's
        ``learning=True`` batch path), so the learned weights are identical
        to a :meth:`train_sample` loop.
        """
        if len(images) == 0:
            return np.zeros((0, self.n_exc), dtype=float)
        results = self.network.run_batch(self.encode_batch(images), learning=True)
        self.samples_trained += len(results)
        return np.stack([result.counts("excitatory") for result in results])

    def respond(self, image: np.ndarray) -> np.ndarray:
        """Present one image with plasticity disabled; returns exc. spike counts."""
        result = self.network.run_sample(self._encode(image), learning=False)
        return result.counts("excitatory")

    def train_stream(self, stream: Iterable[StreamSample]) -> int:
        """Train on every sample of a task stream; returns the sample count."""
        count = 0
        for sample in stream:
            self.train_sample(sample.image)
            count += 1
        return count

    def respond_batch(self, images: Sequence[np.ndarray],
                      batch_size: Optional[int] = None) -> np.ndarray:
        """Responses (spike counts) for a batch of images, shape ``(n, n_exc)``.

        Images are presented with plasticity disabled through the engine's
        vectorized batch path, ``batch_size`` samples at a time (defaults to
        :attr:`eval_batch_size`).  Samples within a chunk are independent and
        the network's adaptation state is left untouched; pass
        ``batch_size=1`` (or set ``eval_batch_size=None``) to recover the
        sequential :meth:`respond` loop, which carries threshold-adaptation
        drift across samples.
        """
        limit = batch_size if batch_size is not None else self.eval_batch_size
        responses = np.zeros((len(images), self.n_exc), dtype=float)
        if limit is None or limit <= 1:
            for index, image in enumerate(images):
                responses[index] = self.respond(image)
            return responses
        limit = int(limit)
        for start in range(0, len(images), limit):
            chunk = images[start:start + limit]
            results = self.network.run_batch(self.encode_batch(chunk),
                                             learning=False)
            for offset, result in enumerate(results):
                responses[start + offset] = result.counts("excitatory")
        return responses

    # -- read-out ---------------------------------------------------------------

    def assign_labels(self, images: Sequence[np.ndarray],
                      labels: Sequence[int]) -> np.ndarray:
        """Assign neuron labels from a labelled assignment set."""
        responses = self.respond_batch(images)
        self.assignments = assign_neuron_labels(
            responses, np.asarray(labels, dtype=int), N_CLASSES
        )
        return self.assignments

    def predict(self, images: Sequence[np.ndarray]) -> np.ndarray:
        """Predict classes for ``images`` using the current assignments."""
        responses = self.respond_batch(images)
        return predict_from_responses(responses, self.assignments, N_CLASSES)

    def evaluate_accuracy(self, images: Sequence[np.ndarray],
                          labels: Sequence[int]) -> float:
        """Classification accuracy on a labelled evaluation set."""
        predictions = self.predict(images)
        return accuracy_metric(predictions, np.asarray(labels, dtype=int))

    # -- event-stream path -------------------------------------------------------

    def encode_events(self, image: np.ndarray):
        """Encode ``image`` as a native event stream (no dense grid).

        Requires the model's encoder to be an
        :class:`~repro.encoding.events.EventStreamEncoder`; the grid
        encoders have no O(events) representation to offer.
        """
        from repro.encoding.events import EventStreamEncoder

        if not isinstance(self.encoder, EventStreamEncoder):
            raise TypeError(
                f"model '{self.name}' uses a {type(self.encoder).__name__}, "
                "which cannot emit event streams; construct it with an "
                "EventStreamEncoder to use the event path"
            )
        return self.encoder.encode_events(self._check_image(image))

    def respond_events(self, events) -> np.ndarray:
        """Spike counts for one event stream, via the event-driven engine.

        ``events`` is anything :meth:`~repro.snn.network.Network.run_events`
        accepts — an :class:`~repro.snn.events.EventStream` or a dense
        ``(timesteps, n_input)`` train.  Plasticity is disabled; on backends
        that declare event support, provably silent gaps are skipped.
        """
        result = self.network.run_events(events, learning=False)
        return result.counts("excitatory")

    def predict_events(self, streams: Sequence) -> np.ndarray:
        """Predict classes for a sequence of event streams."""
        responses = np.stack([self.respond_events(stream)
                              for stream in streams])
        return predict_from_responses(responses, self.assignments, N_CLASSES)

    # -- bookkeeping -------------------------------------------------------------

    def reset_counter(self) -> OperationCounter:
        """Return a copy of the counter and reset it (for per-phase accounting)."""
        snapshot = self.network.counter.copy()
        self.network.counter.reset()
        return snapshot

    def describe(self) -> Dict[str, object]:
        """Small summary dictionary used in reports and serialization."""
        return {
            "name": self.name,
            "architecture": self.architecture_name(),
            "n_input": self.n_input,
            "n_exc": self.n_exc,
            "samples_trained": self.samples_trained,
            "backend": self.backend_name,
        }

    # -- persistence --------------------------------------------------------------

    def encoder_spec(self) -> Dict[str, object]:
        """Self-describing encoder declaration stored in the artifact."""
        spec: Dict[str, object] = {
            "type": type(self.encoder).__name__,
            "duration": self.encoder.duration,
            "dt": self.encoder.dt,
            "timesteps": self.encoder.timesteps,
        }
        for attribute in ("max_rate", "intensity_scale"):
            value = getattr(self.encoder, attribute, None)
            if value is not None:
                spec[attribute] = value
        return spec

    def save(self, directory: PathLike) -> Path:
        """Save a versioned, self-describing model artifact.

        The artifact is a directory holding ``state.npz`` (learned input
        weights, neuron-label assignments, and — when the excitatory group
        adapts — the threshold potential ``theta``) next to ``model.json``
        (schema version, compute backend, full configuration, model
        identity, and the encoder spec).  :meth:`load_state` and
        :func:`repro.serving.artifacts.load_artifact` restore it
        bit-for-bit.

        Returns the directory the files were written to.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        arrays = {
            "input_weights": self.input_weights,
            "assignments": self.assignments,
        }
        excitatory = self.network.group("excitatory")
        theta = getattr(excitatory, "theta", None)
        if theta is not None:
            arrays["theta"] = theta
        save_arrays(arrays, directory / ARTIFACT_STATE_FILE)
        save_json(
            {
                "format": "spikedyn-repro-model",
                "schema_version": ARTIFACT_SCHEMA_VERSION,
                "backend": self.backend_name,
                "config": self.config.to_dict(),
                "meta": self.describe(),
                "encoder": self.encoder_spec(),
            },
            directory / ARTIFACT_METADATA_FILE,
        )
        return directory

    def load_state(self, directory: PathLike) -> None:
        """Restore weights, assignments, and theta written by :meth:`save`.

        Raises
        ------
        ArtifactError
            If the artifact's schema version is newer than this library
            supports, its configuration does not match this model's (any
            field other than ``seed`` — sizes, neuron constants, encoder
            timing), or any stored array is missing or mis-shaped (the
            error message lists expected-vs-found shapes).
        """
        directory = Path(directory)
        metadata, arrays, schema_version, _ = read_artifact_dir(directory)
        try:
            stored_config = SpikeDynConfig.from_dict(metadata["config"])
        except (TypeError, ValueError) as error:
            raise ArtifactError(
                f"{directory} carries an invalid configuration: {error}"
            ) from error
        if (stored_config.n_input, stored_config.n_exc) != (self.n_input, self.n_exc):
            raise ArtifactError(
                "stored model size "
                f"({stored_config.n_input}x{stored_config.n_exc}) does not match "
                f"this model ({self.n_input}x{self.n_exc}) "
                f"[schema version {schema_version}]"
            )
        validate_config_compatibility(
            stored_config, self.config,
            schema_version=schema_version, source=directory,
        )
        validate_artifact_arrays(
            arrays,
            n_input=self.n_input,
            n_exc=self.n_exc,
            schema_version=schema_version,
            source=directory,
        )
        apply_artifact_state(self, arrays, metadata)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(n_input={self.n_input}, n_exc={self.n_exc}, "
            f"samples_trained={self.samples_trained})"
        )

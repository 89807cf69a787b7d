"""Shared model interface for unsupervised spiking digit classifiers.

A model owns a network, a spike encoder, and the evaluation read-out state
(per-neuron class assignments).  The three comparison partners of the paper
(baseline, ASP, SpikeDyn) differ only in the network architecture and the
learning rule they plug into this class.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro.backends import DEFAULT_BACKEND, BackendLike
from repro.core.config import SpikeDynConfig
from repro.datasets.streams import StreamSample
from repro.encoding.rate import PoissonRateEncoder
from repro.evaluation.labeling import assign_neuron_labels, predict_from_responses
from repro.evaluation.metrics import accuracy as accuracy_metric
from repro.snn.network import Network
from repro.snn.simulation import OperationCounter
from repro.utils.rng import ensure_rng
from repro.utils.serialization import save_arrays, save_json
from repro.utils.validation import check_positive_int

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
#: name of the kernel set a loaded model rebuilds on
#: (:data:`repro.backends.DEFAULT_BACKEND` in the ``backend`` key, checked
#: against the accepted names on load).  The stored state is backend-agnostic,
#: so a model run on a substituted backend (a test oracle, a timing wrapper)
#: saves the same key.
ARTIFACT_SCHEMA_VERSION = 3

#: JSON metadata file of a saved model artifact.
ARTIFACT_METADATA_FILE = "model.json"

#: Array archive of a saved model artifact.
ARTIFACT_STATE_FILE = "state.npz"


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
    """

    def __init__(self, config: SpikeDynConfig, network: Network,
                 encoder: Optional[PoissonRateEncoder] = None,
                 name: str = "model") -> None:
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
                      batch_size: int = DEFAULT_EVAL_BATCH_SIZE) -> np.ndarray:
        """Responses (spike counts) for a batch of images, shape ``(n, n_exc)``.

        Images are presented with plasticity disabled through the engine's
        vectorized batch path, ``batch_size`` samples at a time.  Samples
        are independent and the network's adaptation state (``theta``) is
        left untouched, so the counts do not depend on ``batch_size``; they
        equal a :meth:`respond` loop only when threshold adaptation is off,
        since that loop carries ``theta`` drift from one sample to the next.
        """
        check_positive_int(batch_size, "batch_size")
        responses = np.zeros((len(images), self.n_exc), dtype=float)
        for start in range(0, len(images), batch_size):
            chunk = images[start:start + batch_size]
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
        (schema version, the kernel set a load rebuilds on, full
        configuration, model identity, and the encoder spec).
        ``load_artifact(directory).build_model()``
        (:mod:`repro.serving.artifacts`) restores it bit-for-bit.  ``state.npz`` stores its members
        uncompressed (:func:`~repro.utils.serialization.save_arrays`), so a
        load reads the arrays without inflating them; artifacts saved
        compressed, as every save before that format was, load the same.

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
                "backend": DEFAULT_BACKEND,
                "config": self.config.to_dict(),
                # ``describe()`` names the live kernels, which may be a
                # substitute; the artifact names the set a load rebuilds on.
                "meta": {**self.describe(), "backend": DEFAULT_BACKEND},
                "encoder": self.encoder_spec(),
            },
            directory / ARTIFACT_METADATA_FILE,
        )
        return directory

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(n_input={self.n_input}, n_exc={self.n_exc}, "
            f"samples_trained={self.samples_trained})"
        )

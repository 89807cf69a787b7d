"""Per-request inference: seeded encoding, batched prediction, offline twin.

**The equivalence contract.**  Poisson rate coding is stochastic, so "the
same prediction" is only well-defined once the encoding noise is pinned
down.  Serving therefore derives every request's spike train from a
*per-request seed*: :func:`encode_request` draws the train from a fresh
``numpy`` generator seeded with it, making the train — and everything
downstream — a pure function of ``(image, seed, model state)``.

The batched engine guarantees that ``Network.run_batch`` performs, per
sample, exactly the same floating-point operations regardless of which other
samples share the batch (see :meth:`repro.snn.network.Network.run_batch`).
Combining the two facts: however the micro-batcher groups concurrent
requests, each request's spike counts — and hence its prediction — are
bit-for-bit identical to :func:`offline_predictions`, the plain offline
evaluation path over the same ``(image, seed)`` pairs.  The serving tests
assert this end to end.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.evaluation.labeling import class_scores
from repro.models.base import DEFAULT_EVAL_BATCH_SIZE, N_CLASSES, UnsupervisedDigitClassifier
from repro.observability.tracing import TraceContext, record_span
from repro.utils.validation import check_positive_int

#: Seeds are folded into numpy's 32-bit range.
_SEED_MODULUS = 2 ** 32


def derive_request_seed(image: np.ndarray) -> int:
    """Deterministic per-request seed derived from the image content.

    Used when a request carries no explicit seed: the same image always
    encodes to the same spike train, so repeated queries of one image are
    reproducible (and cacheable) without any client cooperation.
    """
    payload = np.ascontiguousarray(np.asarray(image, dtype=float))
    return zlib.crc32(payload.tobytes()) % _SEED_MODULUS


@dataclass
class PredictRequest:
    """One inference request: an image plus its encoding seed.

    ``trace`` is the span context this request runs under when distributed
    tracing is active (``None`` otherwise); it is excluded from equality so
    tracing never changes how requests compare or hash.
    """

    image: np.ndarray
    seed: Optional[int] = None
    trace: Optional[TraceContext] = field(default=None, compare=False, repr=False)

    def resolved_seed(self) -> int:
        """The request's seed, derived from the image when not supplied."""
        if self.seed is None:
            return derive_request_seed(self.image)
        return int(self.seed) % _SEED_MODULUS


@dataclass
class PredictResult:
    """Outcome of one served request."""

    prediction: int
    seed: int
    spike_count: float
    scores: np.ndarray = field(repr=False)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe view returned by the HTTP API."""
        return {
            "prediction": int(self.prediction),
            "seed": int(self.seed),
            "spike_count": float(self.spike_count),
            "scores": [float(value) for value in self.scores],
        }


def encode_request(model: UnsupervisedDigitClassifier, image: np.ndarray,
                   seed: int) -> np.ndarray:
    """Encode one image with a generator freshly seeded by ``seed``.

    The spike probabilities come from the model's own encoder (duration,
    dt, rate constants), but the Bernoulli draws use a dedicated generator,
    so the train depends only on ``(image, seed)`` — never on how many
    requests were encoded before this one.
    """
    probabilities = model.encoder.spike_probabilities(model._check_image(image))
    draws = np.random.default_rng(int(seed)).random(
        (model.encoder.timesteps, probabilities.size)
    )
    return draws < probabilities[None, :]


class PredictionService:
    """Stateless inference wrapper around one model replica.

    ``predict_batch`` is the single entry point the micro-batcher calls: it
    encodes every request with its own seed, advances them through
    ``Network.run_batch`` in one vectorized step, and reads the predictions
    out of the neuron-label assignments.  Inference runs with plasticity
    disabled and the engine restores all adaptation state after each batch,
    so consecutive batches are independent — a replica never drifts.
    """

    def __init__(self, model: UnsupervisedDigitClassifier,
                 span_sink: Optional[Any] = None) -> None:
        self.model = model
        #: Where per-phase span records land when requests carry a trace
        #: context (typically the process-local :class:`RunLedger`).
        self.span_sink = span_sink

    @property
    def n_input(self) -> int:
        return self.model.n_input

    def _encode_timed(self, request: PredictRequest, seed: int) -> np.ndarray:
        """``encode_request`` plus one ``encode`` span under the request."""
        started = time.perf_counter()
        train = encode_request(self.model, request.image, seed)
        record_span(self.span_sink, request.trace.child(), "encode",
                    time.perf_counter() - started, seed=int(seed))
        return train

    def predict_batch(self, requests: Sequence[PredictRequest]
                      ) -> List[PredictResult]:
        """Predictions for a micro-batch of requests, in request order.

        When tracing is active (a request carries a trace context and a
        span sink is configured) the encode and kernel phases are timed and
        recorded per request — the numeric work is identical either way, so
        traced and untraced predictions stay bit-for-bit equal.
        """
        if not requests:
            return []
        model = self.model
        seeds = [request.resolved_seed() for request in requests]
        traced = self.span_sink is not None and any(
            request.trace is not None for request in requests
        )
        trains = np.stack([
            self._encode_timed(request, seed)
            if traced and request.trace is not None
            else encode_request(model, request.image, seed)
            for request, seed in zip(requests, seeds)
        ])
        kernel_started = time.perf_counter()
        results = model.network.run_batch(trains, learning=False)
        if traced:
            # One shared kernel execution; each traced request records the
            # phase under its own span so every trace tree is complete.
            kernel_s = time.perf_counter() - kernel_started
            for request in requests:
                if request.trace is not None:
                    record_span(self.span_sink, request.trace.child(),
                                "kernel", kernel_s,
                                shared_batch=len(requests))
        responses = np.stack([result.counts("excitatory")
                              for result in results]).astype(float)
        scores = class_scores(responses, model.assignments, N_CLASSES)
        predictions = np.argmax(scores, axis=1)
        return [
            PredictResult(
                prediction=int(predictions[index]),
                seed=int(seeds[index]),
                spike_count=float(responses[index].sum()),
                scores=scores[index],
            )
            for index in range(len(requests))
        ]


def offline_predictions(model: UnsupervisedDigitClassifier,
                        images: Sequence[np.ndarray],
                        seeds: Optional[Sequence[Optional[int]]] = None,
                        batch_size: int = DEFAULT_EVAL_BATCH_SIZE) -> np.ndarray:
    """The offline reference path the serving layer must reproduce.

    Encodes every image with its per-request seed (derived from the image
    when ``seeds`` is omitted, exactly like the service) and evaluates them
    ``batch_size`` at a time (:data:`~repro.models.base.DEFAULT_EVAL_BATCH_SIZE`
    by default, the chunk ``model.predict`` uses offline).  Serving
    predictions for the same ``(image, seed)`` pairs are bit-for-bit
    identical however the micro-batcher happened to group them.
    """
    if seeds is None:
        seeds = [None] * len(images)
    if len(seeds) != len(images):
        raise ValueError(
            f"got {len(images)} images but {len(seeds)} seeds"
        )
    check_positive_int(batch_size, "batch_size")
    requests = [PredictRequest(image=np.asarray(image, dtype=float), seed=seed)
                for image, seed in zip(images, seeds)]
    service = PredictionService(model)
    predictions = np.zeros(len(requests), dtype=int)
    for start in range(0, len(requests), batch_size):
        chunk = requests[start:start + batch_size]
        for offset, result in enumerate(service.predict_batch(chunk)):
            predictions[start + offset] = result.prediction
    return predictions

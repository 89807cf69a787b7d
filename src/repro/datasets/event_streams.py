"""Dataset adapter from digit sources to labelled event streams.

Bridges the static-image digit sources (see :mod:`repro.datasets.streams`)
to the event-driven engine: each sampled image is pushed through an
:class:`~repro.encoding.events.EventStreamEncoder` and comes out as a
labelled :class:`~repro.snn.events.EventStream` — a DVS-style long-horizon
presentation of an otherwise static digit.

The adapter mirrors the digit-source protocol's shape (``generate`` /
``classes``) so stream builders and experiments can treat it like any other
source, just with events instead of images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.encoding.events import EventStreamEncoder
from repro.snn.events import EventStream
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int


@dataclass
class EventStreamSample:
    """One labelled event-stream presentation.

    Attributes
    ----------
    stream:
        The encoded spike events of the presentation.
    label:
        Ground-truth class of the underlying image.
    image:
        The source intensity image the stream was encoded from (kept so
        readout calibration can reuse the exact same presentation).
    """

    stream: EventStream
    label: int
    image: np.ndarray


class EventStreamDigitSource:
    """Digit source whose samples are event streams instead of images.

    Parameters
    ----------
    source:
        Any digit source (``generate(digit, n, rng=None)`` + ``classes``),
        e.g. :class:`~repro.datasets.synthetic_mnist.SyntheticDigits`.
    encoder:
        The event-stream encoder applied to every sampled image.
    """

    def __init__(self, source, encoder: EventStreamEncoder) -> None:
        if not isinstance(encoder, EventStreamEncoder):
            raise TypeError(
                f"encoder must be an EventStreamEncoder, got "
                f"{type(encoder).__name__}"
            )
        self.source = source
        self.encoder = encoder

    @property
    def classes(self) -> Sequence[int]:
        """Classes served, inherited from the wrapped digit source."""
        return self.source.classes

    def generate(self, digit: int, n: int,
                 rng: SeedLike = None) -> List[EventStreamSample]:
        """``n`` labelled event-stream presentations of one digit class."""
        n = check_positive_int(n, "n")
        images = self.source.generate(digit, n, rng=rng)
        return [
            EventStreamSample(
                stream=self.encoder.encode_events(image),
                label=int(digit),
                image=np.asarray(image, dtype=float),
            )
            for image in images
        ]

    def labelled_streams(
        self, n_per_class: int, classes: Optional[Sequence[int]] = None,
        rng: SeedLike = None,
    ) -> Tuple[List[EventStreamSample], np.ndarray]:
        """Event streams for every class, with the label vector alongside.

        Returns ``(samples, labels)`` with samples grouped by class in
        ``classes`` order (defaults to every class of the wrapped source).
        """
        rng = ensure_rng(rng)
        selected = list(classes) if classes is not None else list(self.classes)
        if not selected:
            raise ValueError("no classes selected for event-stream sampling")
        samples: List[EventStreamSample] = []
        for digit in selected:
            samples.extend(self.generate(int(digit), n_per_class, rng=rng))
        labels = np.array([sample.label for sample in samples], dtype=int)
        return samples, labels

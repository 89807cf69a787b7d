"""Datasets and task streams.

The paper evaluates on MNIST.  Because this reproduction must run fully
offline, the digit source is :class:`SyntheticDigits` — a procedural
generator of MNIST-like 28x28 digit images (stroke-based prototypes per
class, random geometric jitter, stroke-intensity variation, and pixel noise).

:mod:`repro.datasets.streams` builds the two evaluation protocols of the
paper's Section IV: *dynamic environments* (consecutive task changes without
re-feeding previous tasks) and *non-dynamic environments* (randomly
distributed tasks).
"""

from repro.datasets.event_streams import (
    EventStreamDigitSource,
    EventStreamSample,
)
from repro.datasets.streams import (
    StreamSample,
    dynamic_task_stream,
    nondynamic_stream,
    normalize_task_schedule,
    task_schedule_stream,
)
from repro.datasets.synthetic_mnist import SyntheticDigits

__all__ = [
    "EventStreamDigitSource",
    "EventStreamSample",
    "StreamSample",
    "SyntheticDigits",
    "dynamic_task_stream",
    "nondynamic_stream",
    "normalize_task_schedule",
    "task_schedule_stream",
]

"""Spike encoders that convert static inputs into spike trains.

The paper uses Poisson rate coding (Section II / IV):
:class:`PoissonRateEncoder`.  The event-stream family
(:mod:`repro.encoding.events`) emits the engine's native sparse
:class:`~repro.snn.events.EventStream` representation directly, for the
long-horizon low-rate workloads served by ``Network.run_events``.
"""

from repro.encoding.base import SpikeEncoder
from repro.encoding.events import (
    DVSEventStreamEncoder,
    EventStreamEncoder,
)
from repro.encoding.rate import PoissonRateEncoder

__all__ = [
    "DVSEventStreamEncoder",
    "EventStreamEncoder",
    "PoissonRateEncoder",
    "SpikeEncoder",
]

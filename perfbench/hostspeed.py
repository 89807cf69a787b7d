"""Host-speed calibration of the in-process workloads.

On a shared virtual machine the host's own speed changes: on the 2-vCPU
machines this benchmark was built on, the same event stream took 6.9 ms of
thread CPU time for a while and then 12.8 ms for up to half a minute, with
no steal to show for it.  No clock leaves that out, and a run of any length
can fall entirely into a slow spell.

A short fixed calibration loop, run on the workload's thread right before
and right after every unit, measures the host's speed around it, and the
unit's time is reported at the loop's nominal speed::

    scaled = measured * NOMINAL_MS / mean(loop before, loop after)

A slow spell slows different work by different amounts, so each kind of work
gets a loop like it:

- :class:`EventProbe`, small numpy updates of a 400-neuron state inside a
  Python loop, for the interpreter-bound event engine;
- :class:`MatvecProbe`, products of a 784-input vector with a 784x400 weight
  matrix, for the batched stepped engine of ``batch_infer``;
- :class:`TrainProbe`, both loops, for ``continual_train``, whose steps mix
  interpreted orchestration and learning with the input products;
- :class:`SetupProbe`, the event loop plus copies of a weight-sized matrix,
  for building a model, which mostly copies weights.

Over one-second windows of a two-minute run, the time per event stream moved
by 31 % (interquartile range over median) and its ratio to the event loop's
time by 5 %.  Over 20-second stretches of a 150-second run, the median time
per training sample moved by 16 %, and its ratio to the training loop's time
by 2 %.

The program under test never runs inside a loop, so a change to the program
moves the scaled times exactly as it moves the measured ones.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np


class Probe:
    """A calibration loop; calling it returns its thread CPU time in ms."""

    #: Time of one loop between units on an uncontended host (2-vCPU Intel
    #: Xeon virtual machine, Python 3.11, numpy 2.4: the lower mode of its
    #: distribution).  Scaled times are times at this host speed; on such a
    #: host they equal the measured ones.
    NOMINAL_MS = 1.0

    def __call__(self) -> float:
        started = time.thread_time()
        self.loop()
        return (time.thread_time() - started) * 1e3

    def loop(self) -> None:
        raise NotImplementedError

    def scales(self, probe_ms: List[float]) -> List[float]:
        """Factors of the units between consecutive probes.

        ``probe_ms`` holds one probe before every unit and one after the last.
        """
        return [2.0 * self.NOMINAL_MS / (before + after)
                for before, after in zip(probe_ms, probe_ms[1:])]

    def measure(self, function):
        """``(result, scaled seconds)`` of ``function()`` run between two probes."""
        before = self()
        started = time.thread_time()
        result = function()
        elapsed = time.thread_time() - started
        return result, elapsed * self.scales([before, self()])[0]


class EventProbe(Probe):
    """Small numpy updates of a 400-neuron state inside a Python loop."""

    NOMINAL_MS = 1.10

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.state = rng.random(400)
        self.drive = rng.random(400)
        self.rows = rng.random((50, 400))

    def loop(self) -> None:
        state = self.state.copy()
        for index in range(150):
            state *= 0.99
            state += self.drive * 0.01
            spiking = state > 0.5
            np.count_nonzero(spiking)
            state[spiking] -= 0.1
            state += self.rows[index % 50] * 0.001


class MatvecProbe(Probe):
    """Twenty products of a 784-input vector with a 784x400 weight matrix."""

    NOMINAL_MS = 1.95

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.inputs = rng.random(784)
        self.weights = rng.random((784, 400))

    def loop(self) -> None:
        for _ in range(20):
            self.inputs @ self.weights


class TrainProbe(Probe):
    """The event loop and the matvec loop, as a training step mixes both."""

    NOMINAL_MS = 3.60

    def __init__(self) -> None:
        self.parts = (EventProbe(), MatvecProbe())

    def loop(self) -> None:
        for part in self.parts:
            part.loop()


class SetupProbe(EventProbe):
    """The event loop plus three copies of a 784x400 weight matrix."""

    NOMINAL_MS = 2.70

    def __init__(self) -> None:
        super().__init__()
        self.weights = np.random.default_rng(1).random((784, 400))

    def loop(self) -> None:
        super().loop()
        for _ in range(3):
            self.weights.copy()

"""Event-queue engine: cost proportional to spike events, not timesteps.

The tentpole claim of the event-driven path: on long-horizon, low-rate
workloads (T >= 1000 steps, <= 1% input spike density, DVS-style bursts
separated by long silent gaps), ``Network.run_events`` on the ``sparse``
backend (which declares ``supports_events``) must be

* **equivalent** — excitatory spike counts bit-equal to the stepped sparse
  reference on every sample, and the derived predictions identical (jumped
  steps are *provably* silent, so no spike can be missed);
* **fast** — at least 3x quicker end-to-end than stepping the same streams
  through the sparse backend's clock-driven ``run_sample`` loop.

The equivalence half always runs; like the other throughput gates in this
directory, the wall-clock half is measured best-of-3.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import SpikeDynConfig
from repro.models.spikedyn_model import SpikeDynModel
from repro.snn.events import EventStream

#: Long-horizon geometry: 28x28 inputs, N100, T >= 1000 as the claim states.
N_INPUT = 784
N_EXC = 100
TIMESTEPS = 1200
N_STREAMS = 6

#: Burst structure of the workload (events arrive in short global windows).
N_BURSTS = 6
BURST_STEPS = 8
BURST_DENSITY = 0.2

#: Wall-clock advantage the event engine must demonstrate.
MIN_SPEEDUP = 3.0

#: Density ceiling the claim is made at.
MAX_DENSITY = 0.01


def _make_network():
    config = SpikeDynConfig.scaled_down(
        n_input=N_INPUT, n_exc=N_EXC, t_sim=float(TIMESTEPS), seed=0,
    )
    return SpikeDynModel(config).network


def _event_streams() -> list:
    """Bursty DVS-style streams: a few active windows, long silent gaps."""
    rng = np.random.default_rng(99)
    spacing = TIMESTEPS // N_BURSTS
    streams = []
    for _ in range(N_STREAMS):
        times, channels = [], []
        for b in range(N_BURSTS):
            window = rng.random((BURST_STEPS, N_INPUT)) < BURST_DENSITY
            offset, channel = np.nonzero(window)
            times.append(b * spacing + offset)
            channels.append(channel)
        stream = EventStream(
            times=np.concatenate(times), channels=np.concatenate(channels),
            n_steps=TIMESTEPS, n_channels=N_INPUT,
        )
        assert stream.density <= MAX_DENSITY, (
            f"workload density {stream.density:.4f} exceeds the "
            f"{MAX_DENSITY:.0%} regime the claim is made at"
        )
        streams.append(stream)
    return streams


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_eventqueue_equivalence_and_speedup_on_long_horizons():
    """Counts bit-equal to stepped sparse; >= 3x faster at <= 1% density."""
    streams = _event_streams()
    stepped_net = _make_network()
    event_net = _make_network()

    # Correctness first, on every stream: the event engine must reproduce
    # the stepped reference's excitatory counts exactly.
    event_counts = []
    for stream in streams:
        reference = stepped_net.run_sample(stream.to_dense(), learning=False)
        result = event_net.run_events(stream, learning=False)
        np.testing.assert_array_equal(
            result.counts("excitatory"), reference.counts("excitatory"),
            err_msg="event engine diverged from the stepped reference",
        )
        event_counts.append(result.counts("excitatory"))
    assert event_net.counter.steps_skipped > 0, (
        "the event engine never jumped a silent gap on a <= 1% workload"
    )
    total_events = sum(stream.n_events for stream in streams)
    assert event_net.counter.events_processed == total_events

    def run_stepped():
        for stream in streams:
            stepped_net.run_sample(stream.to_dense(), learning=False)

    def run_events():
        for stream in streams:
            event_net.run_events(stream, learning=False)

    stepped_s = _best_of(run_stepped)
    event_s = _best_of(run_events)
    speedup = stepped_s / event_s
    density = float(np.mean([stream.density for stream in streams]))
    print(f"\nstepped {stepped_s * 1e3:8.1f} ms   events "
          f"{event_s * 1e3:8.1f} ms   speedup {speedup:4.2f}x "
          f"(T={TIMESTEPS}, density={density:.3%})")
    assert speedup >= MIN_SPEEDUP, (
        f"event engine at {density:.2%} density over T={TIMESTEPS} is only "
        f"{speedup:.2f}x faster than stepping (required: >= {MIN_SPEEDUP}x)"
    )


def test_eventqueue_predictions_match_the_stepped_reference():
    """Model-level: assignments + predictions identical on both paths."""
    streams = _event_streams()[:3]
    config = SpikeDynConfig.scaled_down(
        n_input=N_INPUT, n_exc=N_EXC, t_sim=float(TIMESTEPS), seed=1,
    )
    stepped_model = SpikeDynModel(config)
    event_model = SpikeDynModel(config)

    from repro.evaluation.labeling import (
        assign_neuron_labels,
        predict_from_responses,
    )

    stepped = np.stack([
        stepped_model.network.run_sample(s.to_dense(), learning=False)
        .counts("excitatory") for s in streams
    ])
    events = np.stack([event_model.respond_events(s) for s in streams])
    labels = np.arange(len(streams))
    assignments = assign_neuron_labels(stepped, labels, 10)
    np.testing.assert_array_equal(
        predict_from_responses(events, assignments, 10),
        predict_from_responses(stepped, assignments, 10),
    )

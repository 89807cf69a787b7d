"""Zero-spike inputs must be handled uniformly by every backend.

All-silent inputs are the degenerate corner of the event-driven work: the
clock-driven engines must walk them without emitting a single spike or
touching any weight, the event engine must collapse them into one analytic
jump, and a silent sample embedded in an otherwise active batch must behave
exactly like its sequential counterpart.  Parametrized over every selectable
backend name (registered or alias) and the GEMV oracle via the shared
conformance fixtures.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SpikeDynConfig
from repro.models.spikedyn_model import SpikeDynModel
from repro.snn.events import EventStream

N_INPUT = 64
N_EXC = 10
TIMESTEPS = 30


def _model(backend) -> SpikeDynModel:
    config = SpikeDynConfig.scaled_down(
        n_input=N_INPUT, n_exc=N_EXC, t_sim=float(TIMESTEPS), seed=29,
    )
    model = SpikeDynModel(config)
    model.network.set_backend(backend)
    return model


class TestZeroSpikeInputs:
    def test_all_silent_sample_is_inert(self, backend):
        model = _model(backend)
        silent = np.zeros((TIMESTEPS, N_INPUT), dtype=bool)
        weights_before = model.input_weights.copy()
        result = model.network.run_sample(silent, learning=False)
        assert result.counts("excitatory").sum() == 0
        np.testing.assert_array_equal(model.input_weights, weights_before)

    def test_all_silent_training_sample_emits_no_spikes(self, backend):
        # With plasticity on, a silent sample still commits SpikeDyn's
        # window depression (by design) — but it must never spike.
        model = _model(backend)
        silent = np.zeros((TIMESTEPS, N_INPUT), dtype=bool)
        result = model.network.run_sample(silent, learning=True)
        assert result.counts("excitatory").sum() == 0

    def test_silent_sample_in_a_batch_matches_sequential(self, backend, backend_name):
        model = _model(backend)
        rng = np.random.default_rng(29)
        trains = rng.random((3, TIMESTEPS, N_INPUT)) < 0.15
        trains[1] = False  # one all-silent sample mid-batch
        batched = model.network.run_batch(trains, learning=False)
        assert batched[1].counts("excitatory").sum() == 0

        sequential_model = _model(backend)
        for index, train in enumerate(trains):
            reference = sequential_model.network.run_sample(
                train, learning=False
            )
            np.testing.assert_array_equal(
                batched[index].counts("excitatory"),
                reference.counts("excitatory"),
                err_msg=f"{backend_name}: batch sample {index} diverged",
            )

    def test_empty_event_stream_runs_on_every_backend(self, backend):
        model = _model(backend)
        result = model.network.run_events(
            EventStream.empty(TIMESTEPS, N_INPUT)
        )
        assert result.counts("excitatory").sum() == 0
        assert model.counter.events_processed == 0
        # Only event-capable backends may skip steps; either way the
        # executed+skipped accounting must cover the whole horizon when
        # jumps happened.
        if model.network.backend.supports_events:
            assert model.counter.steps_skipped == TIMESTEPS
        else:
            assert model.counter.steps_skipped == 0

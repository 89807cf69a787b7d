"""Tests for simulation parameters and the operation counter."""

from __future__ import annotations

import pytest

from repro.snn.simulation import OperationCounter, SimulationParameters


class TestSimulationParameters:
    def test_paper_defaults(self):
        params = SimulationParameters()
        assert params.dt == 1.0
        assert params.t_sim == 350.0
        assert params.t_rest == 150.0

    def test_steps_per_sample(self):
        params = SimulationParameters(dt=1.0, t_sim=350.0)
        assert params.steps_per_sample == 350

    def test_steps_per_sample_with_coarse_dt(self):
        params = SimulationParameters(dt=2.0, t_sim=100.0)
        assert params.steps_per_sample == 50

    def test_rest_steps(self):
        params = SimulationParameters(dt=1.0, t_rest=150.0)
        assert params.rest_steps == 150

    def test_zero_rest_is_allowed(self):
        assert SimulationParameters(t_rest=0.0).rest_steps == 0

    def test_rejects_negative_rest(self):
        with pytest.raises(ValueError):
            SimulationParameters(t_rest=-1.0)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            SimulationParameters(dt=0.0)

    def test_rejects_presentation_shorter_than_timestep(self):
        with pytest.raises(ValueError):
            SimulationParameters(dt=5.0, t_sim=2.0)


class TestOperationCounter:
    def test_starts_at_zero(self):
        counter = OperationCounter()
        assert counter.total_ops() == 0
        assert all(value == 0 for value in counter.as_dict().values())

    def test_add_increments_named_counters(self):
        counter = OperationCounter()
        counter.add(neuron_updates=3, synaptic_events=5)
        assert counter.neuron_updates == 3
        assert counter.synaptic_events == 5

    def test_add_accumulates(self):
        counter = OperationCounter()
        counter.add(weight_updates=2)
        counter.add(weight_updates=4)
        assert counter.weight_updates == 6

    def test_add_unknown_counter_raises(self):
        counter = OperationCounter()
        # Method names are not counters either.
        for name in ("made_up_counter", "copy", "reset", "as_dict"):
            with pytest.raises(AttributeError, match="no counter named"):
                counter.add(**{name: 1})
        assert counter == OperationCounter()

    def test_total_ops_excludes_spike_events(self):
        counter = OperationCounter(neuron_updates=1, synaptic_events=2,
                                   exponential_ops=3, trace_updates=4,
                                   weight_updates=5, spike_events=100)
        assert counter.total_ops() == 15

    def test_total_ops_excludes_event_engine_tallies(self):
        # events_processed / steps_skipped attribute savings, they are not
        # compute work; total_ops must not change when they do.
        counter = OperationCounter(neuron_updates=1, events_processed=50,
                                   steps_skipped=900)
        assert counter.total_ops() == 1

    def test_event_tallies_survive_arithmetic_and_round_trip(self):
        a = OperationCounter(events_processed=5, steps_skipped=100)
        b = OperationCounter(events_processed=2, steps_skipped=40)
        assert (a + b).events_processed == 7
        assert (a - b).steps_skipped == 60
        rebuilt = OperationCounter(**a.as_dict())
        assert rebuilt == a

    def test_reset(self):
        counter = OperationCounter(neuron_updates=10)
        counter.reset()
        assert counter.neuron_updates == 0
        assert counter.total_ops() == 0

    def test_copy_is_independent(self):
        counter = OperationCounter(neuron_updates=1)
        duplicate = counter.copy()
        duplicate.add(neuron_updates=5)
        assert counter.neuron_updates == 1
        assert duplicate.neuron_updates == 6

    def test_addition(self):
        a = OperationCounter(neuron_updates=1, weight_updates=2)
        b = OperationCounter(neuron_updates=3, trace_updates=4)
        merged = a + b
        assert merged.neuron_updates == 4
        assert merged.weight_updates == 2
        assert merged.trace_updates == 4

    def test_subtraction(self):
        a = OperationCounter(neuron_updates=10, synaptic_events=7)
        b = OperationCounter(neuron_updates=4, synaptic_events=2)
        delta = a - b
        assert delta.neuron_updates == 6
        assert delta.synaptic_events == 5

    def test_addition_with_other_types_is_not_implemented(self):
        counter = OperationCounter()
        with pytest.raises(TypeError):
            counter + 3  # noqa: B018 - the error is the point

    def test_as_dict_round_trip(self):
        counter = OperationCounter(neuron_updates=2, spike_events=9)
        rebuilt = OperationCounter(**counter.as_dict())
        assert rebuilt == counter

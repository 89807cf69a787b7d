"""Property-based tests for the evaluation and estimation layers."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.estimation.energy import weighted_operations
from repro.estimation.hardware import GTX_1080_TI, JETSON_NANO, RTX_2080_TI
from repro.estimation.memory import (
    ARCH_BASELINE,
    ARCH_SPIKEDYN,
    architecture_parameter_counts,
)
from repro.evaluation.confusion import confusion_matrix
from repro.evaluation.labeling import assign_neuron_labels, predict_from_responses
from repro.evaluation.metrics import accuracy
from repro.snn.simulation import OperationCounter

label_arrays = hnp.arrays(dtype=np.int64, shape=st.integers(1, 60),
                          elements=st.integers(0, 9))


@settings(max_examples=60, deadline=None)
@given(labels=label_arrays, predictions=label_arrays)
def test_confusion_matrix_conserves_samples(labels, predictions):
    n = min(labels.size, predictions.size)
    labels, predictions = labels[:n], predictions[:n]
    matrix = confusion_matrix(labels, predictions, n_classes=10)
    assert matrix.sum() == n
    np.testing.assert_array_equal(matrix.sum(axis=1),
                                  np.bincount(labels, minlength=10))
    np.testing.assert_array_equal(matrix.sum(axis=0),
                                  np.bincount(predictions, minlength=10))


@settings(max_examples=60, deadline=None)
@given(labels=label_arrays)
def test_accuracy_is_the_confusion_diagonal(labels):
    rng = np.random.default_rng(0)
    predictions = labels.copy()
    flip = rng.random(labels.size) < 0.3
    predictions[flip] = (predictions[flip] + 1) % 10
    matrix = confusion_matrix(labels, predictions, n_classes=10)
    assert accuracy(predictions, labels) == np.trace(matrix) / labels.size


@settings(max_examples=40, deadline=None)
@given(
    responses=hnp.arrays(dtype=float, shape=(12, 8),
                         elements=st.floats(min_value=0.0, max_value=50.0)),
    labels=hnp.arrays(dtype=np.int64, shape=12, elements=st.integers(0, 3)),
)
def test_labeling_and_prediction_outputs_are_always_valid(responses, labels):
    assignments = assign_neuron_labels(responses, labels, n_classes=4)
    assert assignments.shape == (8,)
    assert np.all(assignments >= -1)
    assert np.all(assignments < 4)
    predictions = predict_from_responses(responses, assignments, n_classes=4)
    assert predictions.shape == (12,)
    assert np.all(predictions >= 0)
    assert np.all(predictions < 4)


counter_strategy = st.builds(
    OperationCounter,
    neuron_updates=st.integers(0, 10**7),
    synaptic_events=st.integers(0, 10**7),
    exponential_ops=st.integers(0, 10**7),
    trace_updates=st.integers(0, 10**7),
    weight_updates=st.integers(0, 10**7),
    spike_events=st.integers(0, 10**7),
)


@settings(max_examples=60, deadline=None)
@given(counter=counter_strategy)
def test_weighted_operations_are_nonnegative_and_monotone(counter):
    ops = weighted_operations(counter)
    assert ops >= 0.0
    larger = counter + OperationCounter(synaptic_events=10)
    assert weighted_operations(larger) >= ops


@settings(max_examples=60, deadline=None)
@given(counter=counter_strategy)
def test_device_cost_ordering_is_consistent(counter):
    ops = weighted_operations(counter)
    nano = JETSON_NANO.seconds_for_operations(ops)
    gtx = GTX_1080_TI.seconds_for_operations(ops)
    rtx = RTX_2080_TI.seconds_for_operations(ops)
    assert nano >= gtx >= rtx
    for device in (JETSON_NANO, GTX_1080_TI, RTX_2080_TI):
        assert device.energy_for_operations(ops) >= 0.0


@settings(max_examples=60, deadline=None)
@given(counter_a=counter_strategy, counter_b=counter_strategy)
def test_counter_arithmetic_matches_weighted_operations(counter_a, counter_b):
    combined = counter_a + counter_b
    assert weighted_operations(combined) == (
        weighted_operations(counter_a) + weighted_operations(counter_b)
    )


@settings(max_examples=60, deadline=None)
@given(n_input=st.integers(1, 2000), n_exc=st.integers(1, 2000))
def test_spikedyn_architecture_never_needs_more_memory(n_input, n_exc):
    baseline = architecture_parameter_counts(ARCH_BASELINE, n_input, n_exc)
    spikedyn = architecture_parameter_counts(ARCH_SPIKEDYN, n_input, n_exc)
    assert spikedyn.weights <= baseline.weights
    assert spikedyn.neuron_parameters <= baseline.neuron_parameters
    assert spikedyn.memory_bytes(32) <= baseline.memory_bytes(32)
    # Both share the same learned input projection.
    assert baseline.weights - spikedyn.weights == n_exc + n_exc * (n_exc - 1) - 1

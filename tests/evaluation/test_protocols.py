"""Tests for the dynamic and non-dynamic evaluation protocols (Section IV)."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.evaluation.protocols import (
    DynamicProtocolResult,
    NonDynamicProtocolResult,
    run_dynamic_protocol,
    run_nondynamic_protocol,
)
from repro.models.base import DEFAULT_EVAL_BATCH_SIZE
from repro.models.spikedyn_model import SpikeDynModel


@pytest.fixture
def config() -> SpikeDynConfig:
    return SpikeDynConfig.scaled_down(n_input=64, n_exc=8, t_sim=20.0, seed=0)


@pytest.fixture
def source() -> SyntheticDigits:
    return SyntheticDigits(image_size=8, seed=0)


class TestDynamicProtocol:
    def test_result_structure(self, config, source):
        model = SpikeDynModel(config)
        result = run_dynamic_protocol(model, source, class_sequence=[0, 1],
                                      samples_per_task=2,
                                      eval_samples_per_class=2, rng=0)
        assert isinstance(result, DynamicProtocolResult)
        assert result.model_name == "spikedyn"
        assert result.class_sequence == [0, 1]
        assert set(result.recent_task_accuracy) == {0, 1}
        assert set(result.final_task_accuracy) == {0, 1}
        assert result.confusion.shape == (10, 10)

    def test_accuracies_are_fractions(self, config, source):
        model = SpikeDynModel(config)
        result = run_dynamic_protocol(model, source, class_sequence=[0, 1],
                                      samples_per_task=2,
                                      eval_samples_per_class=2, rng=0)
        for value in list(result.recent_task_accuracy.values()) + list(
                result.final_task_accuracy.values()):
            assert 0.0 <= value <= 1.0
        assert 0.0 <= result.mean_recent_accuracy <= 1.0
        assert 0.0 <= result.mean_final_accuracy <= 1.0

    def test_confusion_counts_match_the_evaluation_set(self, config, source):
        model = SpikeDynModel(config)
        result = run_dynamic_protocol(model, source, class_sequence=[0, 1, 2],
                                      samples_per_task=2,
                                      eval_samples_per_class=3, rng=0)
        assert result.confusion.sum() == 3 * 3
        for task in (0, 1, 2):
            assert result.confusion[task].sum() == 3
        # Tasks that never appeared contribute no confusion rows.
        assert result.confusion[5].sum() == 0

    def test_training_happens(self, config, source):
        model = SpikeDynModel(config)
        run_dynamic_protocol(model, source, class_sequence=[0, 1],
                             samples_per_task=3, eval_samples_per_class=2, rng=0)
        assert model.samples_trained == 6

    def test_model_is_trained_task_by_task(self, config, source):
        """The stream is consecutive (dynamic): after the protocol, the model
        saw samples_per_task samples of each class, in sequence order."""
        seen = []

        class RecordingModel(SpikeDynModel):
            def train_sample(self, image):
                seen.append(np.asarray(image).copy())
                return super().train_sample(image)

        model = RecordingModel(config)
        run_dynamic_protocol(model, source, class_sequence=[1, 0],
                             samples_per_task=2, eval_samples_per_class=2, rng=0)
        assert len(seen) == 4

    def test_empty_class_sequence_rejected(self, config, source):
        model = SpikeDynModel(config)
        with pytest.raises(ValueError):
            run_dynamic_protocol(model, source, class_sequence=[],
                                 samples_per_task=2, eval_samples_per_class=2)

    def test_invalid_sample_counts_rejected(self, config, source):
        model = SpikeDynModel(config)
        with pytest.raises(ValueError):
            run_dynamic_protocol(model, source, samples_per_task=0)
        with pytest.raises(ValueError):
            run_dynamic_protocol(model, source, eval_samples_per_class=0)

    def test_mean_accuracies(self):
        result = DynamicProtocolResult(
            model_name="m", class_sequence=[0, 1],
            recent_task_accuracy={0: 1.0, 1: 0.5},
            final_task_accuracy={0: 0.25, 1: 0.75},
        )
        assert result.mean_recent_accuracy == pytest.approx(0.75)
        assert result.mean_final_accuracy == pytest.approx(0.5)


class TestNonDynamicProtocol:
    def test_result_structure(self, config, source):
        model = SpikeDynModel(config)
        result = run_nondynamic_protocol(model, source, checkpoints=(2, 4),
                                         classes=[0, 1],
                                         eval_samples_per_class=2, rng=0)
        assert isinstance(result, NonDynamicProtocolResult)
        assert result.checkpoints == [2, 4]
        assert set(result.accuracy_at_checkpoint) == {2, 4}
        for value in result.accuracy_at_checkpoint.values():
            assert 0.0 <= value <= 1.0

    def test_trains_exactly_up_to_the_last_checkpoint(self, config, source):
        model = SpikeDynModel(config)
        run_nondynamic_protocol(model, source, checkpoints=(2, 5), classes=[0, 1],
                                eval_samples_per_class=2, rng=0)
        assert model.samples_trained == 5

    def test_final_accuracy_property(self):
        result = NonDynamicProtocolResult(
            model_name="m", checkpoints=[2, 4],
            accuracy_at_checkpoint={2: 0.5, 4: 0.8},
        )
        assert result.final_accuracy == 0.8

    def test_final_accuracy_requires_checkpoints(self):
        with pytest.raises(ValueError):
            NonDynamicProtocolResult(model_name="m").final_accuracy

    def test_checkpoints_must_be_increasing_and_positive(self, config, source):
        model = SpikeDynModel(config)
        with pytest.raises(ValueError):
            run_nondynamic_protocol(model, source, checkpoints=(4, 2))
        with pytest.raises(ValueError):
            run_nondynamic_protocol(model, source, checkpoints=(0, 2))
        with pytest.raises(ValueError):
            run_nondynamic_protocol(model, source, checkpoints=())


class TestProtocolDeterminism:
    def test_same_seed_same_result(self, config, source):
        def run():
            model = SpikeDynModel(config)
            fresh_source = SyntheticDigits(image_size=8, seed=0)
            return run_dynamic_protocol(model, fresh_source, class_sequence=[0, 1],
                                        samples_per_task=2,
                                        eval_samples_per_class=2, rng=3)

        first, second = run(), run()
        assert first.recent_task_accuracy == second.recent_task_accuracy
        assert first.final_task_accuracy == second.final_task_accuracy
        np.testing.assert_array_equal(first.confusion, second.confusion)


class TestChunkSize:
    def test_results_are_independent_of_the_chunk_size(self, config, source):
        """Chunk size must not change protocol outcomes (exact equality)."""
        outcomes = []
        for size in (2, DEFAULT_EVAL_BATCH_SIZE):
            model = SpikeDynModel(config)
            model.respond_batch = functools.partial(model.respond_batch,
                                                    batch_size=size)
            result = run_dynamic_protocol(model, source, class_sequence=[0, 1],
                                          samples_per_task=2,
                                          eval_samples_per_class=2, rng=0)
            outcomes.append(result)
        assert outcomes[0].recent_task_accuracy == outcomes[1].recent_task_accuracy
        assert outcomes[0].final_task_accuracy == outcomes[1].final_task_accuracy
        np.testing.assert_array_equal(outcomes[0].confusion, outcomes[1].confusion)

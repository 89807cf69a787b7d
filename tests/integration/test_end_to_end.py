"""End-to-end integration tests across the whole pipeline.

These tests exercise the realistic flow a user of the library follows:
configure, search for a model under constraints, train it continually on a
dynamic task stream, evaluate it, estimate its energy, and persist it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ASPModel,
    DiehlCookModel,
    SpikeDynConfig,
    SpikeDynModel,
    SyntheticDigits,
    search_snn_model,
)
from repro.estimation.energy import EnergyModel
from repro.estimation.hardware import GTX_1080_TI, JETSON_NANO
from repro.estimation.memory import ARCH_SPIKEDYN, architecture_parameter_counts
from repro.evaluation import run_dynamic_protocol, run_nondynamic_protocol
from repro.serving import load_artifact


@pytest.fixture
def config() -> SpikeDynConfig:
    return SpikeDynConfig.scaled_down(n_input=196, n_exc=16, t_sim=50.0, seed=0)


@pytest.fixture
def source() -> SyntheticDigits:
    return SyntheticDigits(image_size=14, seed=0)


class TestUnsupervisedLearningPipeline:
    def test_training_specializes_neurons_to_classes(self, config, source):
        """After unsupervised training on two visually distinct digits, the
        read-out separates them better than chance."""
        model = SpikeDynModel(config)
        rng = np.random.default_rng(0)
        classes = (0, 1)
        for _ in range(6):
            for digit in classes:
                model.train_sample(source.generate(digit, 1, rng=rng)[0])

        assign_images, assign_labels = [], []
        for digit in classes:
            for image in source.generate(digit, 4, rng=rng):
                assign_images.append(image)
                assign_labels.append(digit)
        model.assign_labels(assign_images, assign_labels)

        eval_images, eval_labels = [], []
        for digit in classes:
            for image in source.generate(digit, 5, rng=rng):
                eval_images.append(image)
                eval_labels.append(digit)
        accuracy = model.evaluate_accuracy(eval_images, eval_labels)
        assert accuracy >= 0.6  # well above the 0.5 chance level

    def test_training_moves_weights_towards_input_patterns(self, config, source):
        model = SpikeDynModel(config)
        rng = np.random.default_rng(0)
        prototype = source.prototype(0).ravel()
        before = model.input_weights.copy()
        for image in source.generate(0, 8, rng=rng):
            model.train_sample(image)
        after = model.input_weights

        # The weight column of the most responsive neuron correlates with the
        # digit-0 prototype more strongly after training than before.
        responses = model.respond(source.generate(0, 1, rng=rng)[0])
        winner = int(np.argmax(responses))
        corr_before = np.corrcoef(before[:, winner], prototype)[0, 1]
        corr_after = np.corrcoef(after[:, winner], prototype)[0, 1]
        assert corr_after > corr_before

    def test_all_three_models_complete_the_dynamic_protocol(self, config, source):
        for model_cls in (DiehlCookModel, ASPModel, SpikeDynModel):
            model = model_cls(config.with_network_size(10))
            result = run_dynamic_protocol(
                model, source, class_sequence=[0, 1], samples_per_task=2,
                eval_samples_per_class=2, rng=0,
            )
            assert set(result.recent_task_accuracy) == {0, 1}
            assert model.samples_trained == 4

    def test_nondynamic_protocol_runs_for_spikedyn(self, config, source):
        model = SpikeDynModel(config.with_network_size(10))
        result = run_nondynamic_protocol(
            model, source, checkpoints=(2, 4), classes=[0, 1],
            eval_samples_per_class=2, rng=0,
        )
        assert result.checkpoints == [2, 4]


class TestSearchThenTrainFlow:
    def test_tool_flow(self, config, source):
        """The Fig. 3 flow: constraints -> search -> build -> train -> evaluate."""
        budget = architecture_parameter_counts(
            ARCH_SPIKEDYN, config.n_input, 12
        ).memory_bytes(config.bit_precision) * 1.01
        search = search_snn_model(config, memory_budget_bytes=budget, n_add=4, rng=0)
        assert search.selected is not None

        model = SpikeDynModel(config.with_network_size(search.selected.n_exc), rng=0)
        assert model.n_exc == search.selected.n_exc

        result = run_dynamic_protocol(model, source, class_sequence=[0, 1],
                                      samples_per_task=2,
                                      eval_samples_per_class=2, rng=0)
        assert set(result.final_task_accuracy) == {0, 1}

        memory = architecture_parameter_counts(
            ARCH_SPIKEDYN, config.n_input, model.n_exc
        ).memory_bytes(config.bit_precision)
        assert memory <= budget

    def test_direct_search_api(self, config):
        budget = architecture_parameter_counts(
            ARCH_SPIKEDYN, config.n_input, 8
        ).memory_bytes(config.bit_precision) * 1.01
        result = search_snn_model(config, memory_budget_bytes=budget, n_add=4)
        assert result.selected is not None
        assert result.selected.n_exc == 8


class TestEnergyAccountingAcrossModels:
    def test_spikedyn_counts_fewer_inference_ops_than_the_baseline(self, config,
                                                                   source):
        """The inference-energy saving of Fig. 11 at the operation level."""
        image = source.generate(0, 1, rng=0)[0]
        ops = {}
        for name, model_cls in (("baseline", DiehlCookModel),
                                ("spikedyn", SpikeDynModel)):
            model = model_cls(config)
            before = model.counter.copy()
            model.respond(image)
            ops[name] = EnergyModel(GTX_1080_TI).weighted_ops(model.counter - before)
        assert ops["spikedyn"] < ops["baseline"]

    def test_energy_scales_with_device_not_with_counts(self, config, source):
        image = source.generate(0, 1, rng=0)[0]
        model = SpikeDynModel(config)
        before = model.counter.copy()
        model.respond(image)
        delta = model.counter - before
        fast = EnergyModel(GTX_1080_TI).estimate(delta)
        slow = EnergyModel(JETSON_NANO).estimate(delta)
        assert slow.joules != fast.joules
        assert slow.weighted_ops == fast.weighted_ops


class TestPersistenceAcrossThePipeline:
    def test_save_train_load_continue(self, config, source, tmp_path):
        model = SpikeDynModel(config.with_network_size(10))
        for image in source.generate(0, 3, rng=0):
            model.train_sample(image)
        model.save(tmp_path / "checkpoint")

        restored = load_artifact(tmp_path / "checkpoint").build_model()
        np.testing.assert_array_equal(restored.input_weights, model.input_weights)

        # Training can continue from the restored state.
        for image in source.generate(1, 2, rng=1):
            restored.train_sample(image)
        assert restored.samples_trained == 5

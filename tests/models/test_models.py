"""Tests for the three comparison-partner models and the shared base class."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SpikeDynConfig
from repro.core.learning import SpikeDynLearningRule
from repro.datasets.streams import StreamSample
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.estimation.memory import ARCH_BASELINE, ARCH_SPIKEDYN
from repro.learning.asp import ASPLearningRule
from repro.learning.stdp import PairwiseSTDP
from repro.models.asp_model import ASPModel
from repro.models.base import N_CLASSES, UnsupervisedDigitClassifier
from repro.models.diehl_cook import DiehlCookModel
from repro.models.spikedyn_model import SpikeDynModel
from repro.serving import load_artifact

ALL_MODELS = (DiehlCookModel, ASPModel, SpikeDynModel)


@pytest.fixture
def config() -> SpikeDynConfig:
    return SpikeDynConfig.scaled_down(n_input=64, n_exc=8, t_sim=20.0, seed=0)


@pytest.fixture
def source() -> SyntheticDigits:
    return SyntheticDigits(image_size=8, seed=0)


class TestConstruction:
    @pytest.mark.parametrize("model_cls", ALL_MODELS)
    def test_builds_from_config(self, model_cls, config):
        model = model_cls(config)
        assert model.n_input == 64
        assert model.n_exc == 8
        assert model.samples_trained == 0
        assert model.input_weights.shape == (64, 8)

    def test_model_names(self, config):
        assert DiehlCookModel(config).name == "baseline"
        assert ASPModel(config).name == "asp"
        assert SpikeDynModel(config).name == "spikedyn"

    def test_architecture_names(self, config):
        assert DiehlCookModel(config).architecture_name() == ARCH_BASELINE
        assert ASPModel(config).architecture_name() == ARCH_BASELINE
        assert SpikeDynModel(config).architecture_name() == ARCH_SPIKEDYN

    def test_default_learning_rules(self, config):
        assert isinstance(DiehlCookModel(config).learning_rule, PairwiseSTDP)
        assert isinstance(ASPModel(config).learning_rule, ASPLearningRule)
        assert isinstance(SpikeDynModel(config).learning_rule, SpikeDynLearningRule)

    def test_custom_learning_rule_is_used(self, config):
        rule = SpikeDynLearningRule(adaptive_rates=False)
        model = SpikeDynModel(config, learning_rule=rule)
        assert model.learning_rule is rule
        assert model.network.connection("input_to_exc").learning_rule is rule

    def test_spikedyn_weight_decay_follows_network_size(self, config):
        model = SpikeDynModel(config)
        assert model.learning_rule.weight_decay.w_decay == pytest.approx(
            config.effective_w_decay
        )

    def test_assignments_start_unlabelled(self, config):
        model = SpikeDynModel(config)
        assert model.assignments.shape == (8,)
        assert np.all(model.assignments == -1)


class TestTrainingAndInference:
    def test_train_sample_returns_excitatory_counts(self, config, source):
        model = SpikeDynModel(config)
        counts = model.train_sample(source.generate(0, 1, rng=0)[0])
        assert counts.shape == (8,)
        assert model.samples_trained == 1

    def test_train_sample_changes_weights(self, config, source):
        model = SpikeDynModel(config)
        before = model.input_weights.copy()
        for image in source.generate(0, 4, rng=0):
            model.train_sample(image)
        assert not np.array_equal(model.input_weights, before)

    def test_respond_does_not_learn(self, config, source):
        model = SpikeDynModel(config)
        before = model.input_weights.copy()
        model.respond(source.generate(0, 1, rng=0)[0])
        np.testing.assert_array_equal(model.input_weights, before)
        assert model.samples_trained == 0

    def test_image_size_is_validated(self, config):
        model = SpikeDynModel(config)
        with pytest.raises(ValueError):
            model.train_sample(np.zeros((10, 10)))

    def test_train_stream(self, config, source):
        model = SpikeDynModel(config)
        stream = [StreamSample(image=image, label=0, task_index=0)
                  for image in source.generate(0, 3, rng=0)]
        assert model.train_stream(stream) == 3
        assert model.samples_trained == 3

    def test_respond_batch_shape(self, config, source):
        model = SpikeDynModel(config)
        images = list(source.generate(1, 4, rng=0))
        responses = model.respond_batch(images)
        assert responses.shape == (4, 8)

    @pytest.mark.parametrize("model_cls", ALL_MODELS)
    def test_all_models_train_and_respond(self, model_cls, config, source):
        model = model_cls(config)
        image = source.generate(2, 1, rng=0)[0]
        model.train_sample(image)
        counts = model.respond(image)
        assert counts.shape == (8,)
        assert model.counter.total_ops() > 0


class TestReadout:
    def test_assign_labels_and_predict(self, config, source):
        model = SpikeDynModel(config)
        rng = np.random.default_rng(0)
        images, labels = [], []
        for digit in (0, 1):
            for image in source.generate(digit, 6, rng=rng):
                model.train_sample(image)
        for digit in (0, 1):
            for image in source.generate(digit, 3, rng=rng):
                images.append(image)
                labels.append(digit)
        assignments = model.assign_labels(images, labels)
        assert assignments.shape == (8,)
        assert set(np.unique(assignments)).issubset({-1, 0, 1})
        predictions = model.predict(images)
        assert predictions.shape == (len(images),)
        assert set(np.unique(predictions)).issubset(set(range(N_CLASSES)))

    def test_evaluate_accuracy_bounds(self, config, source):
        model = SpikeDynModel(config)
        rng = np.random.default_rng(0)
        images = list(source.generate(0, 4, rng=rng))
        labels = [0] * 4
        model.assign_labels(images, labels)
        accuracy = model.evaluate_accuracy(images, labels)
        assert 0.0 <= accuracy <= 1.0


class TestBookkeeping:

    def test_describe(self, config):
        model = SpikeDynModel(config)
        description = model.describe()
        assert description["name"] == "spikedyn"
        assert description["architecture"] == ARCH_SPIKEDYN
        assert description["n_exc"] == 8

    def test_baseline_has_more_network_parameters(self, config):
        baseline = DiehlCookModel(config)
        spikedyn = SpikeDynModel(config)
        assert (baseline.network.weight_count
                > spikedyn.network.weight_count)


class TestPersistence:
    def test_save_and_load_round_trip(self, config, source, tmp_path):
        model = SpikeDynModel(config)
        for image in source.generate(0, 3, rng=0):
            model.train_sample(image)
        images = list(source.generate(0, 2, rng=0))
        model.assign_labels(images, [0, 0])
        model.save(tmp_path / "model")

        restored = load_artifact(tmp_path / "model").build_model()
        assert type(restored) is SpikeDynModel
        assert restored.config == model.config
        np.testing.assert_array_equal(restored.input_weights, model.input_weights)
        np.testing.assert_array_equal(restored.assignments, model.assignments)
        np.testing.assert_array_equal(
            restored.network.group("excitatory").theta,
            model.network.group("excitatory").theta,
        )
        assert restored.samples_trained == model.samples_trained

    def test_loaded_model_predicts_like_the_original(self, config, source, tmp_path):
        model = SpikeDynModel(config)
        for image in source.generate(1, 3, rng=0):
            model.train_sample(image)
        eval_images = list(source.generate(1, 2, rng=1))
        model.assign_labels(eval_images, [1, 1])
        model.save(tmp_path / "model")

        restored = load_artifact(tmp_path / "model").build_model()
        # Give both models identically seeded encoders so the Poisson draws
        # (and therefore the responses) match exactly.
        from repro.encoding.rate import PoissonRateEncoder

        for candidate in (model, restored):
            candidate.encoder = PoissonRateEncoder(
                duration=config.t_sim, dt=config.dt, max_rate=config.max_rate,
                intensity_scale=config.intensity_scale, rng=123,
            )
        np.testing.assert_array_equal(
            model.predict(eval_images), restored.predict(eval_images)
        )


class TestBaseClassIsAbstract:
    def test_architecture_name_must_be_implemented(self, config):
        from repro.core.architecture import build_spikedyn_network

        network = build_spikedyn_network(config, learning_rule=SpikeDynLearningRule())
        model = UnsupervisedDigitClassifier(config, network)
        with pytest.raises(NotImplementedError):
            model.architecture_name()

"""Tests for the shared experiment infrastructure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import (
    MODEL_BUILDERS,
    MODEL_ORDER,
    ExperimentScale,
    build_model,
    default_digit_source,
    measure_sample_counters,
    sample_images,
)
from repro import serving
from repro.models import MODEL_CLASSES
from repro.models.asp_model import ASPModel
from repro.models.diehl_cook import DiehlCookModel
from repro.models.spikedyn_model import SpikeDynModel


class TestExperimentScale:
    def test_presets_exist_and_grow(self):
        tiny = ExperimentScale.tiny()
        small = ExperimentScale.small()
        paper = ExperimentScale.paper()
        assert max(tiny.network_sizes) < max(small.network_sizes) < max(paper.network_sizes)
        assert paper.image_size == 28
        assert paper.network_sizes == (200, 400)
        assert paper.t_sim == 350.0

    def test_n_input_is_square_of_image_size(self):
        assert ExperimentScale(image_size=14).n_input == 196

    def test_network_labels(self):
        scale = ExperimentScale(network_sizes=(200, 400))
        assert scale.network_labels == ("N200", "N400")

    def test_config_carries_the_scale_settings(self):
        scale = ExperimentScale(image_size=10, t_sim=44.0, update_interval=11.0,
                                seed=5)
        config = scale.config(17)
        assert config.n_input == 100
        assert config.n_exc == 17
        assert config.t_sim == 44.0
        assert config.update_interval == 11.0
        assert config.seed == 5

    def test_config_overrides(self):
        config = ExperimentScale().config(10, c_theta=0.25)
        assert config.c_theta == 0.25

    def test_replace(self):
        scale = ExperimentScale.tiny().replace(seed=9)
        assert scale.seed == 9

    def test_preset_overrides(self):
        scale = ExperimentScale.tiny(network_sizes=(5,))
        assert scale.network_sizes == (5,)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(network_sizes=())
        with pytest.raises(ValueError):
            ExperimentScale(class_sequence=())
        with pytest.raises(ValueError):
            ExperimentScale(samples_per_task=0)


class TestBuildModel:
    def test_registry_contains_the_three_partners(self):
        assert set(MODEL_BUILDERS) == {"baseline", "asp", "spikedyn"}
        assert MODEL_ORDER == ("baseline", "asp", "spikedyn")

    def test_one_table_maps_model_names_to_classes(self):
        assert MODEL_BUILDERS is MODEL_CLASSES is serving.MODEL_CLASSES

    def test_builds_each_model(self, tiny_scale):
        config = tiny_scale.config(6)
        assert isinstance(build_model("baseline", config), DiehlCookModel)
        assert isinstance(build_model("asp", config), ASPModel)
        assert isinstance(build_model("spikedyn", config), SpikeDynModel)

    def test_name_is_case_insensitive(self, tiny_scale):
        config = tiny_scale.config(6)
        assert isinstance(build_model("SpikeDyn", config), SpikeDynModel)

    def test_unknown_name_rejected(self, tiny_scale):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("cnn", tiny_scale.config(6))


class TestDigitSourceAndImages:
    def test_source_matches_the_scale(self):
        scale = ExperimentScale.tiny(image_size=10)
        source = default_digit_source(scale)
        assert source.image_size == 10

    def test_sample_images_shape(self):
        scale = ExperimentScale.tiny(image_size=10)
        images = sample_images(scale, 3)
        assert images.shape == (3, 10, 10)

    def test_sample_images_are_seed_deterministic(self):
        scale = ExperimentScale.tiny()
        np.testing.assert_array_equal(sample_images(scale, 2), sample_images(scale, 2))


class TestMeasureSampleCounters:
    def test_measures_both_phases(self, tiny_scale):
        model = build_model("spikedyn", tiny_scale.config(6))
        images = sample_images(tiny_scale, 2)
        counters = measure_sample_counters(model, images)
        assert counters.model_name == "spikedyn"
        assert counters.n_exc == 6
        assert counters.training.total_ops() > 0
        assert counters.inference.total_ops() > 0

    def test_training_costs_at_least_as_much_as_inference(self, tiny_scale):
        model = build_model("spikedyn", tiny_scale.config(6))
        counters = measure_sample_counters(model, sample_images(tiny_scale, 2))
        assert counters.training.total_ops() >= counters.inference.total_ops()

    def test_requires_at_least_one_image(self, tiny_scale):
        model = build_model("spikedyn", tiny_scale.config(6))
        with pytest.raises(ValueError):
            measure_sample_counters(model, [])

    def test_asp_training_is_most_expensive(self, tiny_scale):
        """The Fig. 1(b)/Fig. 11 energy ordering at the operation-count level."""
        images = sample_images(tiny_scale, 2)
        totals = {}
        for name in MODEL_ORDER:
            model = build_model(name, tiny_scale.config(8))
            totals[name] = measure_sample_counters(model, images).training.total_ops()
        assert totals["asp"] > totals["baseline"]
        assert totals["spikedyn"] < totals["asp"]

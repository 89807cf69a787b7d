"""Tests for job specifications and content-addressed keys."""

from __future__ import annotations

import pytest

import repro
from repro.experiments.common import ExperimentScale
from repro.runner import JobSpec, scale_from_dict, scale_to_dict


class TestScaleSerialization:
    def test_round_trip_preserves_every_field(self, micro_scale):
        rebuilt = scale_from_dict(scale_to_dict(micro_scale))
        assert rebuilt == micro_scale

    def test_tuples_become_lists_and_back(self, micro_scale):
        data = scale_to_dict(micro_scale)
        assert isinstance(data["network_sizes"], list)
        assert isinstance(data["class_sequence"], list)
        rebuilt = scale_from_dict(data)
        assert isinstance(rebuilt.network_sizes, tuple)
        assert isinstance(rebuilt.class_sequence, tuple)


class TestJobKey:
    def test_key_is_deterministic(self, micro_scale):
        a = JobSpec(experiment="fig5", scale=micro_scale)
        b = JobSpec(experiment="fig5", scale=micro_scale)
        assert a.key() == b.key()
        assert len(a.key()) == 64  # sha256 hex digest

    def test_key_changes_with_driver(self, micro_scale):
        a = JobSpec(experiment="fig5", scale=micro_scale)
        b = JobSpec(experiment="fig6", scale=micro_scale)
        assert a.key() != b.key()

    def test_key_changes_with_seed(self, micro_scale):
        a = JobSpec(experiment="fig5", scale=micro_scale)
        b = JobSpec(experiment="fig5", scale=micro_scale.replace(seed=a.seed + 1))
        assert a.key() != b.key()
        assert b.seed == a.seed + 1

    def test_key_changes_with_scale(self, micro_scale):
        a = JobSpec(experiment="fig5", scale=micro_scale)
        b = JobSpec(experiment="fig5", scale=micro_scale.replace(t_sim=31.0))
        assert a.key() != b.key()

    def test_key_changes_with_overrides(self, micro_scale):
        a = JobSpec(experiment="fig5", scale=micro_scale)
        b = JobSpec(experiment="fig5", scale=micro_scale, overrides={"actual_run_samples": 2})
        assert a.key() != b.key()

    def test_key_includes_package_version(self, micro_scale, monkeypatch):
        a = JobSpec(experiment="fig5", scale=micro_scale).key()
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        b = JobSpec(experiment="fig5", scale=micro_scale).key()
        assert a != b

    def test_timeout_is_not_part_of_the_key(self, micro_scale):
        a = JobSpec(experiment="fig5", scale=micro_scale)
        b = JobSpec(experiment="fig5", scale=micro_scale, timeout=10.0)
        assert a.key() == b.key()


class TestJobSpec:
    def test_dict_round_trip(self, micro_scale):
        job = JobSpec(
            experiment="fig9-dynamic",
            scale=micro_scale,
            overrides={"models": ["baseline"]},
            output="fig09_dynamic_accuracy",
            timeout=60.0,
        )
        rebuilt = JobSpec.from_dict(job.to_dict())
        assert rebuilt.key() == job.key()
        assert rebuilt.scale == job.scale
        assert rebuilt.output_stem == "fig09_dynamic_accuracy"
        assert rebuilt.timeout == 60.0

    def test_default_output_stem_is_sanitized(self, micro_scale):
        job = JobSpec(experiment="repro.runner.testing:echo_driver", scale=micro_scale)
        assert ":" not in job.output_stem
        dashed = JobSpec(experiment="fig9-dynamic", scale=micro_scale)
        assert dashed.output_stem == "fig9_dynamic"

    def test_empty_experiment_rejected(self, micro_scale):
        with pytest.raises(ValueError):
            JobSpec(experiment="", scale=micro_scale)

    def test_non_json_overrides_rejected(self, micro_scale):
        with pytest.raises(TypeError):
            JobSpec(experiment="fig5", scale=micro_scale, overrides={"rng": object()})

    def test_example_scale_equivalence(self):
        tiny_a = ExperimentScale.tiny(seed=3)
        tiny_b = ExperimentScale.tiny(seed=3)
        assert JobSpec(experiment="fig5", scale=tiny_a).key() == (
            JobSpec(experiment="fig5", scale=tiny_b).key()
        )

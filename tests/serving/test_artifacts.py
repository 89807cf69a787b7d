"""Artifact registry tests: round trips, validation, versioning."""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro.models import MODEL_CLASSES
from repro.models.base import ARTIFACT_SCHEMA_VERSION
from repro.models.spikedyn_model import SpikeDynModel
from repro.serving import (
    ArtifactError,
    ArtifactRegistry,
    load_artifact,
)
from repro.utils.serialization import load_json, save_arrays, save_json


class TestRoundTrip:
    def test_bit_for_bit_round_trip(self, artifact, trained_model):
        rebuilt = artifact.build_model()
        np.testing.assert_array_equal(rebuilt.input_weights,
                                      trained_model.input_weights)
        np.testing.assert_array_equal(rebuilt.assignments,
                                      trained_model.assignments)
        np.testing.assert_array_equal(
            rebuilt.network.group("excitatory").theta,
            trained_model.network.group("excitatory").theta,
        )
        assert rebuilt.samples_trained == trained_model.samples_trained

    def test_build_model_returns_independent_instances(self, artifact):
        first = artifact.build_model()
        second = artifact.build_model()
        assert first is not second
        assert not np.shares_memory(first.input_weights, second.input_weights)
        np.testing.assert_array_equal(first.input_weights, second.input_weights)

    def test_build_model_survives_artifact_dir_deletion(self, trained_model,
                                                        tmp_path):
        """A loaded ModelArtifact is self-contained: replicas build from the
        in-memory state even after the directory is gone (registry rollback,
        tempdir cleanup)."""
        import shutil

        directory = trained_model.save(tmp_path / "ephemeral")
        loaded = load_artifact(directory)
        shutil.rmtree(directory)
        rebuilt = loaded.build_model()
        np.testing.assert_array_equal(rebuilt.input_weights,
                                      trained_model.input_weights)
        assert rebuilt.samples_trained == trained_model.samples_trained

    def test_metadata_is_self_describing(self, artifact_dir):
        metadata = load_json(artifact_dir / "model.json")
        assert metadata["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert metadata["format"] == "spikedyn-repro-model"
        assert metadata["meta"]["name"] == "spikedyn"
        encoder = metadata["encoder"]
        assert encoder["type"] == "PoissonRateEncoder"
        assert encoder["duration"] == pytest.approx(40.0)
        assert encoder["timesteps"] == 40

    @pytest.mark.parametrize("name", sorted(MODEL_CLASSES))
    def test_round_trip_property_across_seeds(self, name, serving_config,
                                              tmp_path):
        """Save → load is the identity on learned state for any weights, and
        rebuilds the stored model class and configuration (presentation
        window and seed included), so neither has to be restated."""
        for seed in range(3):
            config = serving_config.replace(seed=seed, t_sim=30.0 + seed)
            model = MODEL_CLASSES[name](config)
            rng = np.random.default_rng(seed)
            model.input_weights[:] = rng.uniform(
                0.0, 1.0, size=model.input_weights.shape
            )
            model.assignments = rng.integers(-1, 10, size=model.n_exc)
            model.network.group("excitatory").theta[:] = rng.uniform(
                0.0, 0.5, size=model.n_exc
            )
            directory = model.save(tmp_path / f"{name}-{seed}")
            rebuilt = load_artifact(directory).build_model()
            assert type(rebuilt) is MODEL_CLASSES[name]
            assert rebuilt.config == config
            assert rebuilt.encoder.duration == config.t_sim
            np.testing.assert_array_equal(rebuilt.input_weights,
                                          model.input_weights)
            np.testing.assert_array_equal(rebuilt.assignments,
                                          model.assignments)
            np.testing.assert_array_equal(
                rebuilt.network.group("excitatory").theta,
                model.network.group("excitatory").theta,
            )

    def test_compressed_state_from_before_stored_members_loads(
            self, artifact_dir, trained_model, tmp_path):
        """Every artifact saved before ``state.npz`` held stored members was
        written with ``np.savez_compressed``; it still loads, bit for bit."""
        target = tmp_path / "compressed"
        target.mkdir()
        (target / "model.json").write_bytes(
            (artifact_dir / "model.json").read_bytes()
        )
        with np.load(artifact_dir / "state.npz") as archive:
            np.savez_compressed(target / "state.npz",
                                **{key: archive[key] for key in archive.files})
        with zipfile.ZipFile(target / "state.npz") as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }
        expected_theta = trained_model.network.group("excitatory").theta

        rebuilt = load_artifact(target).build_model()
        np.testing.assert_array_equal(rebuilt.input_weights,
                                      trained_model.input_weights)
        np.testing.assert_array_equal(rebuilt.assignments,
                                      trained_model.assignments)
        np.testing.assert_array_equal(
            rebuilt.network.group("excitatory").theta, expected_theta
        )

    def test_a_flipped_byte_in_a_stored_member_is_an_artifact_error(
            self, artifact_dir, tmp_path):
        """Stored members have no deflate stream to break, so a damaged
        weight byte is caught by the zip CRC check alone."""
        target = tmp_path / "flipped"
        target.mkdir()
        (target / "model.json").write_bytes(
            (artifact_dir / "model.json").read_bytes()
        )
        data = bytearray((artifact_dir / "state.npz").read_bytes())
        with zipfile.ZipFile(artifact_dir / "state.npz") as archive:
            member = archive.getinfo("input_weights.npy")
        # The member's data starts after its local header (30 bytes, the
        # name and the extra field); flip a byte near the end of its data.
        offset = (member.header_offset + 30 + len(member.filename.encode())
                  + len(member.extra) + member.compress_size - 8)
        data[offset] ^= 0xFF
        (target / "state.npz").write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="corrupt"):
            load_artifact(target)


class TestValidation:
    def test_missing_directory_is_an_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError, match="not a model artifact"):
            load_artifact(tmp_path / "nope")

    def test_newer_schema_version_is_rejected(self, artifact_dir, tmp_path):
        target = tmp_path / "future"
        target.mkdir()
        (target / "state.npz").write_bytes(
            (artifact_dir / "state.npz").read_bytes()
        )
        metadata = load_json(artifact_dir / "model.json")
        metadata["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        save_json(metadata, target / "model.json")
        with pytest.raises(ArtifactError, match="schema version"):
            load_artifact(target)

    def test_legacy_artifact_without_schema_version_loads(
            self, artifact_dir, trained_model, tmp_path):
        target = tmp_path / "legacy"
        target.mkdir()
        (target / "state.npz").write_bytes(
            (artifact_dir / "state.npz").read_bytes()
        )
        metadata = load_json(artifact_dir / "model.json")
        for key in ("schema_version", "format", "encoder"):
            metadata.pop(key, None)
        save_json(metadata, target / "model.json")
        legacy = load_artifact(target)
        assert legacy.schema_version == 1
        np.testing.assert_array_equal(
            legacy.build_model().input_weights, trained_model.input_weights
        )

    def test_mis_shaped_weights_name_expected_vs_found(
            self, artifact, artifact_dir, tmp_path):
        target = tmp_path / "corrupt"
        target.mkdir()
        (target / "model.json").write_bytes(
            (artifact_dir / "model.json").read_bytes()
        )
        save_arrays(
            {
                "input_weights": np.zeros((5, 4)),
                "assignments": artifact.arrays["assignments"],
            },
            target / "state.npz",
        )
        with pytest.raises(ArtifactError) as excinfo:
            load_artifact(target)
        message = str(excinfo.value)
        assert "(5, 4)" in message  # found
        assert f"({artifact.n_input}, {artifact.n_exc})" in message  # expected
        assert "schema version" in message

    def test_missing_array_is_reported_by_name(self, artifact_dir, tmp_path):
        target = tmp_path / "missing"
        target.mkdir()
        (target / "model.json").write_bytes(
            (artifact_dir / "model.json").read_bytes()
        )
        save_arrays({"input_weights": np.zeros((196, 16))},
                    target / "state.npz")
        with pytest.raises(ArtifactError, match="assignments"):
            load_artifact(target)

    def test_invalid_config_is_an_artifact_error(self, artifact_dir, tmp_path):
        target = tmp_path / "badconfig"
        target.mkdir()
        (target / "state.npz").write_bytes(
            (artifact_dir / "state.npz").read_bytes()
        )
        metadata = load_json(artifact_dir / "model.json")
        metadata["config"]["n_exc"] = -3
        save_json(metadata, target / "model.json")
        with pytest.raises(ArtifactError, match="invalid configuration"):
            load_artifact(target)

    def test_unknown_model_name_is_rejected_at_build(self, artifact_dir,
                                                     tmp_path):
        target = tmp_path / "unknown"
        target.mkdir()
        (target / "state.npz").write_bytes(
            (artifact_dir / "state.npz").read_bytes()
        )
        metadata = load_json(artifact_dir / "model.json")
        metadata["meta"]["name"] = "transformer"
        save_json(metadata, target / "model.json")
        loaded = load_artifact(target)
        with pytest.raises(ArtifactError, match="unknown model"):
            loaded.build_model()

    def test_metadata_without_meta_section_still_loads(
            self, artifact_dir, trained_model, tmp_path):
        """A metadata file holding only 'config' is minimal but valid: it
        rebuilds as SpikeDyn and samples_trained defaults to 0."""
        target = tmp_path / "bare"
        target.mkdir()
        (target / "state.npz").write_bytes(
            (artifact_dir / "state.npz").read_bytes()
        )
        metadata = load_json(artifact_dir / "model.json")
        save_json({"config": metadata["config"]}, target / "model.json")
        rebuilt = load_artifact(target).build_model()
        assert type(rebuilt) is SpikeDynModel
        assert rebuilt.samples_trained == 0
        np.testing.assert_array_equal(rebuilt.input_weights,
                                      trained_model.input_weights)

    def test_corrupt_metadata_json(self, artifact_dir, tmp_path):
        target = tmp_path / "nojson"
        target.mkdir()
        (target / "state.npz").write_bytes(
            (artifact_dir / "state.npz").read_bytes()
        )
        (target / "model.json").write_text(json.dumps({"meta": {}}),
                                           encoding="utf-8")
        with pytest.raises(ArtifactError, match="config"):
            load_artifact(target)


class TestRegistry:
    def test_publish_assigns_monotonic_versions(self, trained_model, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        first = registry.publish(trained_model, "demo")
        second = registry.publish(trained_model, "demo")
        assert first.name == "v0001"
        assert second.name == "v0002"
        assert registry.versions("demo") == [1, 2]
        assert registry.latest_version("demo") == 2

    def test_load_defaults_to_latest(self, trained_model, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        registry.publish(trained_model, "demo")
        registry.publish(trained_model, "demo")
        assert registry.load("demo").path == registry.path_of("demo", 2)
        assert registry.load("demo", 1).path == registry.path_of("demo", 1)

    def test_default_name_is_the_model_name(self, trained_model, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        registry.publish(trained_model)
        assert registry.versions("spikedyn") == [1]

    def test_unknown_name_and_version_raise(self, trained_model, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        with pytest.raises(ArtifactError, match="no artifact named"):
            registry.path_of("ghost")
        registry.publish(trained_model, "demo")
        with pytest.raises(ArtifactError, match="no version 9"):
            registry.path_of("demo", 9)

    def test_list_artifacts(self, trained_model, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        assert registry.list_artifacts() == []
        registry.publish(trained_model, "alpha")
        registry.publish(trained_model, "beta")
        registry.publish(trained_model, "beta")
        assert registry.list_artifacts() == [("alpha", [1]), ("beta", [1, 2])]

    def test_invalid_names_are_rejected(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        with pytest.raises(ValueError, match="artifact names"):
            registry.versions("../escape")

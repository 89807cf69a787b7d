"""Backend selection threads through network, config, models, and artifacts."""

from __future__ import annotations

import json

import numpy as np
import pytest
from gemv_oracle import GemvOracle

from repro.backends import BACKEND_ALIASES, SparseEventBackend, get_backend
from repro.core.config import SpikeDynConfig
from repro.experiments.common import ExperimentScale
from repro.models.diehl_cook import DiehlCookModel
from repro.models.spikedyn_model import SpikeDynModel
from repro.runner.jobs import JobSpec
from repro.serving.artifacts import load_artifact
from repro.snn.network import Network
from repro.snn.neurons import InputGroup, LIFGroup
from repro.snn.synapses import Connection
from repro.utils.serialization import ArtifactError


def _tiny_config(**overrides):
    defaults = dict(n_input=16, n_exc=6, t_sim=20.0, seed=0)
    defaults.update(overrides)
    return SpikeDynConfig.scaled_down(**defaults)


class TestNetworkBackend:
    def _network(self, backend=None):
        network = Network(backend=backend)
        inputs = network.add_group(InputGroup(4, name="input"))
        hidden = network.add_group(LIFGroup(3, name="hidden"))
        network.add_connection(Connection(inputs, hidden, np.ones((4, 3))))
        return network

    def test_default_backend_is_sparse(self):
        network = self._network()
        assert network.backend_name == "sparse"

    def test_network_assigns_its_backend_to_components(self):
        network = self._network(backend="sparse")
        assert network.backend_name == "sparse"
        for group in network.groups.values():
            assert group.backend is get_backend("sparse")
        for connection in network.connections:
            assert connection.backend is get_backend("sparse")

    def test_set_backend_retargets_everything(self):
        network = self._network(backend=GemvOracle())
        assert network.backend_name == "gemv-oracle"
        network.set_backend("sparse")
        assert network.backend_name == "sparse"
        assert all(g.backend is get_backend("sparse")
                   for g in network.groups.values())
        assert all(c.backend is get_backend("sparse")
                   for c in network.connections)
        network.set_backend("dense")  # a retired name resolves by alias
        assert network.backend is get_backend("sparse")

    def test_unknown_backend_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Network(backend="quantum")


class TestConfigBackend:
    def test_config_records_and_validates_the_backend(self):
        assert _tiny_config().backend == "sparse"
        assert _tiny_config(backend="sparse").backend == "sparse"
        assert _tiny_config(backend="dense").backend == "sparse"
        with pytest.raises(ValueError, match="unknown backend"):
            _tiny_config(backend="quantum")

    def test_config_backend_reaches_the_model_network(self):
        model = SpikeDynModel(_tiny_config(backend="sparse"))
        assert model.backend_name == "sparse"
        assert "backend" in model.describe()
        assert model.describe()["backend"] == "sparse"

    def test_constructor_backend_overrides_the_config(self):
        model = DiehlCookModel(_tiny_config(), backend="sparse")
        assert model.backend_name == "sparse"
        # The config follows the override, so a saved artifact's top-level
        # backend and config.backend can never disagree.
        assert model.config.backend == "sparse"

    def test_constructor_override_saves_a_consistent_artifact(self, tmp_path):
        model = SpikeDynModel(_tiny_config(), backend="sparse")
        artifact = load_artifact(model.save(tmp_path / "overridden"))
        assert artifact.backend == "sparse"
        assert artifact.config.backend == "sparse"

    def test_set_backend_keeps_config_and_saved_artifact_consistent(
            self, tmp_path):
        model = SpikeDynModel(_tiny_config())
        model.set_backend("sparse")
        assert model.backend_name == "sparse"
        assert model.config.backend == "sparse"
        artifact = load_artifact(model.save(tmp_path / "switched"))
        assert artifact.backend == "sparse"
        assert artifact.config.backend == "sparse"

    def test_config_round_trips_through_dict(self):
        config = _tiny_config(backend="sparse")
        assert SpikeDynConfig.from_dict(config.to_dict()).backend == "sparse"


class TestScaleAndJobBackend:
    def test_scale_backend_reaches_the_config(self):
        scale = ExperimentScale.tiny(backend="sparse")
        assert scale.config(8).backend == "sparse"
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentScale.tiny(backend="quantum")

    def test_backend_is_part_of_the_job_key(self):
        from repro import backends as backends_module

        class Other(SparseEventBackend):
            name = "job-key-other"

        backends_module.register_backend(Other)
        try:
            sparse_job = JobSpec("fig5", ExperimentScale.tiny())
            other_job = JobSpec("fig5", ExperimentScale.tiny(backend="job-key-other"))
            assert sparse_job.backend == "sparse"
            assert other_job.backend == "job-key-other"
            assert sparse_job.key() != other_job.key()
            assert sparse_job.payload()["scale"]["backend"] == "sparse"
        finally:
            backends_module._REGISTRY.pop("job-key-other", None)

    @pytest.mark.parametrize("alias", sorted(BACKEND_ALIASES))
    def test_retired_names_share_the_job_key(self, alias):
        aliased = JobSpec("fig5", ExperimentScale.tiny(backend=alias))
        assert aliased.backend == "sparse"
        assert aliased.key() == JobSpec("fig5", ExperimentScale.tiny()).key()

    def test_job_round_trip_preserves_the_backend(self):
        job = JobSpec("fig5", ExperimentScale.tiny(backend="sparse"))
        restored = JobSpec.from_dict(job.to_dict())
        assert restored.backend == "sparse"
        assert restored.key() == job.key()


class TestArtifactBackend:
    def _saved(self, tmp_path, backend="sparse"):
        model = SpikeDynModel(_tiny_config(backend=backend))
        return model, model.save(tmp_path / "artifact")

    def test_schema_v3_records_the_backend(self, tmp_path):
        _, directory = self._saved(tmp_path, backend="sparse")
        artifact = load_artifact(directory)
        assert artifact.schema_version == 3
        assert artifact.backend == "sparse"
        assert artifact.describe()["backend"] == "sparse"

    def test_build_model_defaults_to_the_recorded_backend(self, tmp_path):
        _, directory = self._saved(tmp_path, backend="sparse")
        rebuilt = load_artifact(directory).build_model()
        assert rebuilt.backend_name == "sparse"

    def test_build_model_backend_override(self, tmp_path):
        saved, directory = self._saved(tmp_path)
        rebuilt = load_artifact(directory).build_model(backend="dense")
        assert rebuilt.backend_name == "sparse"
        np.testing.assert_array_equal(rebuilt.input_weights,
                                      saved.input_weights)

    def test_cross_backend_load_state_is_allowed(self, tmp_path):
        _, directory = self._saved(tmp_path, backend="sparse")
        oracle_model = SpikeDynModel(_tiny_config())
        oracle_model.network.set_backend(GemvOracle())
        oracle_model.load_state(directory)  # backend mismatch is exempt
        assert oracle_model.backend_name == "gemv-oracle"

    def test_unknown_recorded_backend_is_rejected(self, tmp_path):
        _, directory = self._saved(tmp_path)
        metadata_path = directory / "model.json"
        metadata = json.loads(metadata_path.read_text())
        metadata["backend"] = "quantum"
        metadata["config"]["backend"] = "dense"
        metadata_path.write_text(json.dumps(metadata))
        with pytest.raises(ArtifactError, match="unknown backend"):
            load_artifact(directory)

    def test_v3_artifact_without_backend_field_is_rejected(self, tmp_path):
        _, directory = self._saved(tmp_path)
        metadata_path = directory / "model.json"
        metadata = json.loads(metadata_path.read_text())
        del metadata["backend"]
        metadata_path.write_text(json.dumps(metadata))
        with pytest.raises(ArtifactError, match="missing the 'backend'"):
            load_artifact(directory)

    def test_legacy_v2_artifact_defaults_to_sparse(self, tmp_path):
        _, directory = self._saved(tmp_path)
        metadata_path = directory / "model.json"
        metadata = json.loads(metadata_path.read_text())
        metadata["schema_version"] = 2
        del metadata["backend"]
        del metadata["config"]["backend"]
        metadata["meta"].pop("backend", None)
        metadata_path.write_text(json.dumps(metadata))
        artifact = load_artifact(directory)
        assert artifact.schema_version == 2
        assert artifact.backend == "sparse"
        assert artifact.build_model().backend_name == "sparse"


class TestRetiredBackendArtifacts:
    """Artifacts naming a removed backend load and predict as on ``sparse``."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        config = _tiny_config(n_input=64, n_exc=10, t_sim=30.0, seed=3)
        rng = np.random.default_rng(3)
        model = SpikeDynModel(config)
        model.train_batch(rng.random((4, 64)) * 0.7)
        model.assign_labels(rng.random((8, 64)) * 0.7, [i % 2 for i in range(8)])
        directory = model.save(tmp_path_factory.mktemp("retired") / "artifact")
        images = rng.random((6, 64)) * 0.7
        # Encoding draws from a seeded stream, so the reference is a fresh
        # rebuild of the artifact as saved (on sparse), not ``model`` itself.
        expected = load_artifact(directory).build_model().predict(images)
        return model, directory, images, expected

    @staticmethod
    def _rewrite(source, target, **changes):
        import shutil

        shutil.copytree(source, target)
        metadata_path = target / "model.json"
        metadata = json.loads(metadata_path.read_text())
        for key, value in changes.items():
            if value is None:
                metadata.pop(key, None)
                metadata["config"].pop(key, None)
                metadata["meta"].pop(key, None)
            else:
                metadata[key] = value
                if key == "backend":
                    metadata["config"][key] = value
                    metadata["meta"][key] = value
        metadata_path.write_text(json.dumps(metadata))
        return target

    @pytest.mark.parametrize("retired", sorted(BACKEND_ALIASES))
    def test_v3_artifact_naming_a_retired_backend(self, trained, tmp_path, retired):
        model, directory, images, expected = trained
        aliased = self._rewrite(directory, tmp_path / retired, backend=retired)
        assert json.loads((aliased / "model.json").read_text())["backend"] == retired
        artifact = load_artifact(aliased)
        assert artifact.schema_version == 3
        assert artifact.backend == "sparse"
        rebuilt = artifact.build_model()
        assert rebuilt.backend_name == "sparse"
        np.testing.assert_array_equal(rebuilt.predict(images), expected)
        reference, loaded = SpikeDynModel(model.config), SpikeDynModel(model.config)
        reference.load_state(directory)
        loaded.load_state(aliased)
        np.testing.assert_array_equal(loaded.predict(images), reference.predict(images))

    def test_pre_v3_artifact(self, trained, tmp_path):
        _, directory, images, expected = trained
        legacy = self._rewrite(directory, tmp_path / "v2", schema_version=2, backend=None)
        artifact = load_artifact(legacy)
        assert artifact.schema_version == 2
        assert artifact.backend == "sparse"
        np.testing.assert_array_equal(artifact.build_model().predict(images), expected)

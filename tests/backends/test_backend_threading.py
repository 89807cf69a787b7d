"""The kernel seam threads through network and models; the configuration,
scales, job specs and artifacts accept retired backend names from outside
input and run on the one kernel set."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from gemv_oracle import GemvOracle

from repro.backends import BACKEND_ALIASES, get_backend
from repro.core.config import SpikeDynConfig
from repro.experiments.common import ExperimentScale
from repro.models.diehl_cook import DiehlCookModel
from repro.models.spikedyn_model import SpikeDynModel
from repro.runner.jobs import JobSpec, scale_from_dict, scale_to_dict
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
    def test_from_dict_drops_a_legacy_backend_key(self):
        data = _tiny_config().to_dict()
        assert "backend" not in data
        for name in ["sparse", *BACKEND_ALIASES]:
            assert SpikeDynConfig.from_dict({**data, "backend": name}) == _tiny_config()
        with pytest.raises(ValueError, match="unknown backend"):
            SpikeDynConfig.from_dict({**data, "backend": "quantum"})

    def test_config_backend_reaches_the_model_network(self):
        model = SpikeDynModel(_tiny_config())
        assert model.backend_name == "sparse"
        assert "backend" in model.describe()
        assert model.describe()["backend"] == "sparse"

    def test_constructor_backend_reaches_the_network(self):
        oracle = GemvOracle()
        model = DiehlCookModel(_tiny_config(), backend=oracle)
        assert model.network.backend is oracle
        assert model.backend_name == "gemv-oracle"
        assert model.config == _tiny_config()

    def test_constructor_override_saves_a_consistent_artifact(self, tmp_path):
        model = SpikeDynModel(_tiny_config(), backend="sparse")
        artifact = load_artifact(model.save(tmp_path / "overridden"))
        assert artifact.backend == "sparse"
        assert artifact.config == model.config

    def test_set_backend_leaves_the_config_alone(self):
        model = SpikeDynModel(_tiny_config())
        model.set_backend(GemvOracle())
        assert model.backend_name == "gemv-oracle"
        assert model.config == _tiny_config()
        model.set_backend("dense")
        assert model.network.backend is get_backend()

    def test_config_round_trips_through_dict(self):
        config = _tiny_config()
        assert SpikeDynConfig.from_dict(config.to_dict()) == config


class TestScaleAndJobBackend:
    def test_scale_from_dict_drops_a_legacy_backend_key(self):
        data = scale_to_dict(ExperimentScale.tiny())
        assert "backend" not in data
        assert scale_from_dict({**data, "backend": "dense"}) == ExperimentScale.tiny()
        with pytest.raises(ValueError, match="unknown backend"):
            scale_from_dict({**data, "backend": "quantum"})

    @pytest.mark.parametrize("alias", sorted(BACKEND_ALIASES))
    def test_retired_names_share_the_job_key(self, alias):
        payload = JobSpec("fig5", ExperimentScale.tiny()).to_dict()
        payload["scale"]["backend"] = alias
        aliased = JobSpec.from_dict(payload)
        assert aliased.key() == JobSpec("fig5", ExperimentScale.tiny()).key()

    def test_job_round_trip_preserves_the_key(self):
        job = JobSpec("fig5", ExperimentScale.tiny())
        restored = JobSpec.from_dict(job.to_dict())
        assert "backend" not in job.payload()["scale"]
        assert restored.key() == job.key()


class TestArtifactBackend:
    def _saved(self, tmp_path):
        model = SpikeDynModel(_tiny_config())
        return model, model.save(tmp_path / "artifact")

    def test_schema_v3_records_the_backend(self, tmp_path):
        _, directory = self._saved(tmp_path)
        artifact = load_artifact(directory)
        assert artifact.schema_version == 3
        assert artifact.backend == "sparse"
        assert artifact.describe()["backend"] == "sparse"

    def test_build_model_defaults_to_the_recorded_backend(self, tmp_path):
        _, directory = self._saved(tmp_path)
        rebuilt = load_artifact(directory).build_model()
        assert rebuilt.backend_name == "sparse"

    def test_build_model_backend_override(self, tmp_path):
        saved, directory = self._saved(tmp_path)
        rebuilt = load_artifact(directory).build_model(backend="dense")
        assert rebuilt.backend_name == "sparse"
        np.testing.assert_array_equal(rebuilt.input_weights,
                                      saved.input_weights)

    def test_build_model_onto_a_substituted_backend(self, tmp_path):
        saved, directory = self._saved(tmp_path)
        oracle_model = load_artifact(directory).build_model(backend=GemvOracle())
        assert oracle_model.backend_name == "gemv-oracle"
        np.testing.assert_array_equal(oracle_model.input_weights,
                                      saved.input_weights)

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
        metadata["config"].pop("backend", None)
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
        _, directory, images, expected = trained
        aliased = self._rewrite(directory, tmp_path / retired, backend=retired)
        assert json.loads((aliased / "model.json").read_text())["backend"] == retired
        artifact = load_artifact(aliased)
        assert artifact.schema_version == 3
        assert artifact.backend == "sparse"
        rebuilt = artifact.build_model()
        assert rebuilt.backend_name == "sparse"
        np.testing.assert_array_equal(rebuilt.predict(images), expected)

    def test_pre_v3_artifact(self, trained, tmp_path):
        _, directory, images, expected = trained
        legacy = self._rewrite(directory, tmp_path / "v2", schema_version=2, backend=None)
        artifact = load_artifact(legacy)
        assert artifact.schema_version == 2
        assert artifact.backend == "sparse"
        np.testing.assert_array_equal(artifact.build_model().predict(images), expected)


class TestNoSelectionKnob:
    """No configuration, scale, job, pool, driver or preset picks kernels."""

    @pytest.mark.parametrize("record", [SpikeDynConfig, ExperimentScale, JobSpec],
                             ids=lambda record: record.__name__)
    def test_records_have_no_backend_field(self, record):
        assert "backend" not in {field.name for field in dataclasses.fields(record)}

    @pytest.mark.parametrize("pool", ["replica", "shard"])
    def test_pools_take_no_backend_option(self, tmp_path, pool):
        from repro.serving.pool import ReplicaPool
        from repro.serving.shards import ShardProcessPool

        directory = SpikeDynModel(_tiny_config()).save(tmp_path / "artifact")
        pool_class = ReplicaPool if pool == "replica" else ShardProcessPool
        with pytest.raises(TypeError, match="backend"):
            pool_class.from_artifact(load_artifact(directory), 1, backend="sparse")

    def test_eventstream_study_takes_no_backend(self):
        from repro.experiments import run_eventstream_study

        with pytest.raises(TypeError, match="backend"):
            run_eventstream_study(ExperimentScale.tiny(), backend="sparse")

    def test_suite_presets_take_no_backend(self):
        from repro.runner.suite import build_suite, scales_for_preset

        with pytest.raises(TypeError, match="backend"):
            scales_for_preset("tiny", backend="sparse")
        with pytest.raises(TypeError, match="backend"):
            build_suite(scales_for_preset("tiny"), backend="sparse")

"""Error paths of backend selection: every wrong turn fails loudly.

Covers the registry (unknown names, registered-but-unavailable backends),
configuration validation, and the serving artifact layer — an artifact that
*records* an unavailable backend still loads (its arrays are
backend-agnostic), but rebuilding a model on that backend fails with an
``ArtifactError`` that names the override escape hatch.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends import (
    BACKEND_ALIASES,
    SparseEventBackend,
    available_backends,
    describe_backend,
    get_backend,
    normalize_backend_name,
    register_backend,
)
from repro.core.config import SpikeDynConfig
from repro.models.base import ARTIFACT_METADATA_FILE
from repro.models.spikedyn_model import SpikeDynModel
from repro.serving.artifacts import load_artifact
from repro.utils.serialization import ArtifactError


@pytest.fixture
def unavailable_backend():
    """A registered backend whose availability probe always fails."""

    class Unavailable(SparseEventBackend):
        name = "errors-unavailable"
        description = "dependency never importable"

        @classmethod
        def available(cls):
            return False

    register_backend(Unavailable)
    yield "errors-unavailable"
    from repro import backends as backends_module

    backends_module._REGISTRY.pop("errors-unavailable", None)


class TestRegistryErrors:
    def test_unknown_name_raises_value_error_listing_known_backends(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("does-not-exist")
        message = str(excinfo.value)
        for known in ["sparse", *BACKEND_ALIASES]:
            assert known in message

    def test_unavailable_backend_raises_runtime_error(self,
                                                      unavailable_backend):
        with pytest.raises(RuntimeError, match="not available"):
            get_backend(unavailable_backend)

    def test_unavailable_backend_is_still_describable(self,
                                                      unavailable_backend):
        info = describe_backend(unavailable_backend)
        assert info["available"] is False
        assert info["name"] == unavailable_backend
        assert info["description"] == "dependency never importable"

    def test_unavailable_backend_is_excluded_from_available(
            self, unavailable_backend):
        assert unavailable_backend not in available_backends()

    def test_normalize_accepts_registered_but_unavailable_names(
            self, unavailable_backend):
        # Normalization is a *name* check, not an availability check —
        # configs and artifacts may legitimately carry the name of a
        # backend this environment cannot run.
        assert normalize_backend_name(unavailable_backend) == \
            unavailable_backend


class TestConfigErrors:
    def test_config_rejects_unknown_backend_names(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SpikeDynConfig.scaled_down(n_input=16, n_exc=4,
                                       backend="does-not-exist")

    def test_config_accepts_every_registered_backend_name(self):
        for name in ["sparse", *BACKEND_ALIASES]:
            config = SpikeDynConfig.scaled_down(n_input=16, n_exc=4,
                                                backend=name)
            assert config.backend == "sparse"


class TestArtifactErrors:
    @pytest.fixture
    def artifact_dir(self, tmp_path):
        config = SpikeDynConfig.scaled_down(n_input=36, n_exc=6, t_sim=20.0,
                                            seed=1)
        model = SpikeDynModel(config)
        images = np.random.default_rng(1).random((3, 36)) * 0.7
        model.train_batch(images)
        model.assign_labels(images, [0, 1, 0])
        return model.save(tmp_path / "artifact")

    def _rewrite_backend(self, artifact_dir, backend_name):
        metadata_path = artifact_dir / ARTIFACT_METADATA_FILE
        metadata = json.loads(metadata_path.read_text())
        metadata["backend"] = backend_name
        metadata["config"]["backend"] = backend_name
        metadata_path.write_text(json.dumps(metadata))

    def test_artifact_with_unknown_backend_fails_at_load(self, artifact_dir):
        self._rewrite_backend(artifact_dir, "does-not-exist")
        with pytest.raises(ArtifactError, match="unknown backend"):
            load_artifact(artifact_dir)

    def test_artifact_with_unavailable_backend_loads_but_cannot_rebuild(
            self, artifact_dir, unavailable_backend):
        self._rewrite_backend(artifact_dir, unavailable_backend)
        # Loading succeeds: the stored arrays are backend-agnostic and the
        # recorded name is only the default for rebuilds.
        artifact = load_artifact(artifact_dir)
        assert artifact.backend == unavailable_backend
        # Rebuilding on the recorded default cannot work here, and the
        # error must say how to escape (override the backend).
        with pytest.raises(ArtifactError,
                           match="registered but not available"):
            artifact.build_model()
        with pytest.raises(ArtifactError, match="build_model"):
            artifact.build_model()

    def test_rebuild_backend_override_escapes_the_unavailable_default(
            self, artifact_dir, unavailable_backend):
        self._rewrite_backend(artifact_dir, unavailable_backend)
        artifact = load_artifact(artifact_dir)
        model = artifact.build_model(backend="sparse")
        assert model.backend_name == "sparse"
        # The rebuilt replica carries the artifact's learned state.
        np.testing.assert_array_equal(model.input_weights,
                                      artifact.arrays["input_weights"])

    def test_rebuild_on_available_recorded_backend_still_works(
            self, artifact_dir):
        self._rewrite_backend(artifact_dir, "sparse")
        artifact = load_artifact(artifact_dir)
        model = artifact.build_model()
        assert model.backend_name == "sparse"

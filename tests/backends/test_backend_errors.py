"""Error paths of backend names: every wrong turn fails loudly.

Covers name resolution (unknown names), configuration input, and the
serving artifact layer, where an unknown recorded name is an
``ArtifactError``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends import BACKEND_ALIASES, get_backend
from repro.core.config import SpikeDynConfig
from repro.models.base import ARTIFACT_METADATA_FILE
from repro.models.spikedyn_model import SpikeDynModel
from repro.serving.artifacts import load_artifact
from repro.utils.serialization import ArtifactError


class TestRegistryErrors:
    def test_unknown_name_raises_value_error_listing_known_backends(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("does-not-exist")
        message = str(excinfo.value)
        for known in ["sparse", *BACKEND_ALIASES]:
            assert known in message


class TestConfigErrors:
    def test_config_rejects_unknown_backend_names(self):
        data = SpikeDynConfig.scaled_down(n_input=16, n_exc=4).to_dict()
        with pytest.raises(ValueError, match="unknown backend"):
            SpikeDynConfig.from_dict({**data, "backend": "does-not-exist"})

    def test_config_accepts_every_registered_backend_name(self):
        config = SpikeDynConfig.scaled_down(n_input=16, n_exc=4)
        for name in ["sparse", *BACKEND_ALIASES]:
            assert SpikeDynConfig.from_dict({**config.to_dict(), "backend": name}) == config


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

    def test_rebuild_on_available_recorded_backend_still_works(
            self, artifact_dir):
        self._rewrite_backend(artifact_dir, "sparse")
        artifact = load_artifact(artifact_dir)
        model = artifact.build_model()
        assert model.backend_name == "sparse"

"""Compatibility contract for retired backend names in outside input.

Saved artifacts, job specs and callers may still name one of the backends
folded into ``sparse``.  Each such name must keep loading and must run on
the one shared kernel set, bit for bit; an unknown name must keep failing
with the same error.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from gemv_oracle import GemvOracle

from repro.backends import BACKEND_ALIASES, DEFAULT_BACKEND, get_backend
from repro.core.config import SpikeDynConfig
from repro.experiments.common import ExperimentScale
from repro.models.base import ARTIFACT_METADATA_FILE
from repro.models.spikedyn_model import SpikeDynModel
from repro.runner.jobs import JobSpec
from repro.serving.artifacts import load_artifact
from repro.utils.serialization import ArtifactError

IMAGES = np.random.default_rng(7).random((5, 36)) * 0.7
CONFIG = SpikeDynConfig.scaled_down(n_input=36, n_exc=6, t_sim=20.0, seed=3)


@pytest.fixture
def artifact_dir(tmp_path):
    model = SpikeDynModel(CONFIG)
    model.train_batch(IMAGES[:3])
    model.assign_labels(IMAGES[:3], [0, 1, 0])
    return model.save(tmp_path / "artifact")


def _rewrite_backend(artifact_dir, name):
    metadata_path = artifact_dir / ARTIFACT_METADATA_FILE
    metadata = json.loads(metadata_path.read_text())
    metadata["backend"] = name
    metadata["config"]["backend"] = name
    metadata_path.write_text(json.dumps(metadata))


def test_artifact_naming_a_retired_backend_predicts_bit_identically(artifact_dir):
    reference = load_artifact(artifact_dir).build_model()
    expected_counts = reference.respond_batch(IMAGES)
    expected_labels = reference.predict(IMAGES)

    _rewrite_backend(artifact_dir, "dense")
    model = load_artifact(artifact_dir).build_model()
    np.testing.assert_array_equal(model.respond_batch(IMAGES), expected_counts)
    np.testing.assert_array_equal(model.predict(IMAGES), expected_labels)


def test_artifact_naming_an_unknown_backend_fails_to_load(artifact_dir):
    _rewrite_backend(artifact_dir, "does-not-exist")
    with pytest.raises(ArtifactError, match="unknown backend"):
        load_artifact(artifact_dir)


def test_artifact_saved_on_a_substituted_backend_loads(tmp_path):
    """The stored state is backend-agnostic: a model run on the test oracle
    saves the kernel set a load rebuilds on in both backend fields of
    ``model.json`` (``describe()`` keeps naming the live substitute), and
    it loads."""
    model = SpikeDynModel(CONFIG)
    model.set_backend(GemvOracle())
    model.train_batch(IMAGES[:3])
    model.assign_labels(IMAGES[:3], [0, 1, 0])
    directory = model.save(tmp_path / "oracle")

    assert model.describe()["backend"] == "gemv-oracle"
    artifact = load_artifact(directory)
    assert artifact.backend == DEFAULT_BACKEND
    assert artifact.describe()["backend"] == DEFAULT_BACKEND
    metadata = json.loads((directory / ARTIFACT_METADATA_FILE).read_text())
    assert metadata["backend"] == DEFAULT_BACKEND
    assert metadata["meta"]["backend"] == DEFAULT_BACKEND
    loaded = artifact.build_model()
    np.testing.assert_array_equal(loaded.input_weights, model.input_weights)
    np.testing.assert_array_equal(loaded.assignments, model.assignments)
    np.testing.assert_array_equal(loaded.network.group("excitatory").theta,
                                  model.network.group("excitatory").theta)


def test_job_spec_scale_naming_a_retired_backend_rebuilds_the_same_scale():
    scale = ExperimentScale.tiny(seed=4)
    payload = JobSpec("fig5", scale).to_dict()
    payload["scale"]["backend"] = "eventqueue"
    assert JobSpec.from_dict(payload).scale == scale


@pytest.mark.parametrize("name", sorted(BACKEND_ALIASES))
def test_every_retired_name_runs_on_the_one_shared_instance(artifact_dir, name):
    shared = get_backend()
    assert get_backend(name) is shared
    model = load_artifact(artifact_dir).build_model(backend=name)
    assert model.network.backend is shared

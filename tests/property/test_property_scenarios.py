"""Property-style invariants of the scenario engine.

Randomized schedules, transform chains, and seeds: for every draw the built
stream must be bit-identical under the same seed, corruptions must preserve
labels and sample counts, per-task sample counts must match the schedule,
and every corrupted image must stay inside the valid intensity range.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.scenarios import ScenarioSpec, build_transform
from repro.scenarios.transforms import INTENSITY_RANGE

#: (schedule, transforms, seed) draws covering every schedule kind and
#: transform kind in several combinations.
SPEC_CASES = [
    (
        {"kind": "class_incremental", "tasks": [[0, 1], [2]], "samples_per_task": 5},
        (),
        0,
    ),
    (
        {"kind": "class_incremental", "tasks": [[3], [4], [5]], "samples_per_task": 3},
        ({"kind": "gaussian_noise", "sigma": 0.2},),
        1,
    ),
    (
        {"kind": "recurring", "tasks": [[0], [1]], "samples_per_task": 4,
         "repeats": 3},
        ({"kind": "occlusion", "fraction": 0.4},),
        2,
    ),
    (
        {"kind": "recurring", "tasks": [[2, 3], [4]], "samples_per_task": 6,
         "repeats": 2},
        ({"kind": "contrast", "factor": 1.8},
         {"kind": "gaussian_noise", "sigma": 0.05}),
        3,
    ),
    (
        {"kind": "iid", "classes": [0, 1, 2, 3], "n_samples": 25},
        ({"kind": "contrast", "factor": 0.4},),
        4,
    ),
    (
        {"kind": "class_incremental", "tasks": [[6], [7, 8]], "samples_per_task": 4},
        ({"kind": "label_drift", "mapping": {"6": 9}, "start": 0.2, "end": 0.9},),
        5,
    ),
]

#: Transform chains that corrupt images without touching labels or counts.
CORRUPTION_CHAINS = [
    ({"kind": "gaussian_noise", "sigma": 0.3},),
    ({"kind": "occlusion", "fraction": 0.5},),
    ({"kind": "contrast", "factor": 2.5},),
    ({"kind": "gaussian_noise", "sigma": 0.15}, {"kind": "occlusion", "fraction": 0.2}),
    ({"kind": "contrast", "factor": 0.3}, {"kind": "gaussian_noise", "sigma": 0.4}),
]


def _spec(schedule, transforms, name="case"):
    return ScenarioSpec(name=name, schedule=schedule, transforms=tuple(transforms))


def _source(seed):
    return SyntheticDigits(image_size=10, seed=seed)


def _streams_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for sample_a, sample_b in zip(a, b):
        if sample_a.label != sample_b.label:
            return False
        if sample_a.task_index != sample_b.task_index:
            return False
        if not np.array_equal(sample_a.image, sample_b.image):
            return False
    return True


@pytest.mark.parametrize("schedule,transforms,seed", SPEC_CASES)
class TestSeedDeterminism:
    def test_same_seed_same_stream(self, schedule, transforms, seed):
        spec = _spec(schedule, transforms)
        first = spec.build(_source(seed), rng=seed)
        second = spec.build(_source(seed), rng=seed)
        assert _streams_equal(first, second)

    def test_round_tripped_spec_builds_the_same_stream(self, schedule,
                                                       transforms, seed):
        spec = _spec(schedule, transforms)
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            spec.to_dict(), sort_keys=True)
        assert _streams_equal(
            spec.build(_source(seed), rng=seed),
            clone.build(_source(seed), rng=seed),
        )

    def test_different_seed_changes_the_images(self, schedule, transforms, seed):
        spec = _spec(schedule, transforms)
        first = spec.build(_source(seed), rng=seed)
        second = spec.build(_source(seed), rng=seed + 1)
        assert not all(
            np.array_equal(a.image, b.image) for a, b in zip(first, second)
        )


@pytest.mark.parametrize("chain", CORRUPTION_CHAINS)
@pytest.mark.parametrize("seed", [0, 7])
class TestCorruptionInvariants:
    def _base_stream(self, seed):
        spec = _spec(
            {"kind": "class_incremental", "tasks": [[0, 1], [2, 3]],
             "samples_per_task": 6},
            (),
        )
        return spec.build(_source(seed), rng=seed)

    def test_labels_and_counts_preserved(self, chain, seed):
        stream = self._base_stream(seed)
        rng = np.random.default_rng(seed)
        corrupted = list(stream)
        for declaration in chain:
            corrupted = build_transform(declaration).apply(corrupted, None, rng)
        assert [s.label for s in corrupted] == [s.label for s in stream]
        assert [s.task_index for s in corrupted] == [s.task_index for s in stream]

    def test_images_stay_in_intensity_range(self, chain, seed):
        stream = self._base_stream(seed)
        rng = np.random.default_rng(seed)
        for declaration in chain:
            stream = build_transform(declaration).apply(stream, None, rng)
        low, high = INTENSITY_RANGE
        for sample in stream:
            assert sample.image.min() >= low
            assert sample.image.max() <= high

    def test_input_stream_not_mutated(self, chain, seed):
        stream = self._base_stream(seed)
        originals = [np.array(s.image) for s in stream]
        rng = np.random.default_rng(seed)
        for declaration in chain:
            build_transform(declaration).apply(stream, None, rng)
        for sample, original in zip(stream, originals):
            np.testing.assert_array_equal(sample.image, original)


@pytest.mark.parametrize("schedule,transforms,seed", SPEC_CASES)
def test_per_task_sample_counts_match_the_schedule(schedule, transforms, seed):
    # Corruptions and drift never change how many samples each *phase*
    # contributes (only class_imbalance, deliberately absent here, does).
    spec = _spec(schedule, transforms)
    stream = spec.build(_source(seed), rng=seed)
    counts = {}
    for sample in stream:
        counts[sample.task_index] = counts.get(sample.task_index, 0) + 1
    if schedule["kind"] == "iid":
        assert counts == {0: schedule["n_samples"]}
    else:
        expected = schedule["samples_per_task"]
        assert set(counts) == {phase.index for phase in spec.phases()}
        assert set(counts.values()) == {expected}


@pytest.mark.parametrize("schedule,transforms,seed", SPEC_CASES)
def test_labels_stay_within_the_declared_universe(schedule, transforms, seed):
    # Drift may move labels to its mapped targets, but never invents classes
    # outside the schedule's declaration plus the drift targets.
    spec = _spec(schedule, transforms)
    allowed = set(spec.classes())
    for declaration in transforms:
        if declaration["kind"] == "label_drift":
            allowed.update(int(v) for v in declaration["mapping"].values())
    stream = spec.build(_source(seed), rng=seed)
    assert {sample.label for sample in stream} <= allowed


class TestImbalanceInvariants:
    def test_imbalance_only_removes_samples(self):
        spec = _spec(
            {"kind": "iid", "classes": [0, 1, 2], "n_samples": 60},
            ({"kind": "class_imbalance", "keep": {"0": 0.2}},),
        )
        plain = _spec(spec.schedule, ()).build(_source(0), rng=0)
        skewed = spec.build(_source(0), rng=0)
        assert len(skewed) <= len(plain)
        # Untouched classes keep their full share.
        for cls in (1, 2):
            assert (
                sum(1 for s in skewed if s.label == cls)
                == sum(1 for s in plain if s.label == cls)
            )

    def test_imbalance_never_empties_the_stream(self):
        spec = _spec(
            {"kind": "iid", "classes": [0], "n_samples": 10},
            ({"kind": "class_imbalance", "keep": {"0": 0.0}},),
        )
        assert len(spec.build(_source(0), rng=0)) == 1

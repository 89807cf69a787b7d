"""Tests for the dynamic / non-dynamic task streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.streams import (
    StreamSample,
    dynamic_task_stream,
    nondynamic_stream,
    normalize_task_schedule,
    task_schedule_stream,
)
from repro.datasets.synthetic_mnist import SyntheticDigits


@pytest.fixture
def source() -> SyntheticDigits:
    return SyntheticDigits(image_size=8, seed=0)


class TestDynamicTaskStream:
    def test_tasks_appear_consecutively(self, source):
        stream = dynamic_task_stream(source, class_sequence=[3, 1, 4],
                                     samples_per_task=2, rng=0)
        labels = [sample.label for sample in stream]
        assert labels == [3, 3, 1, 1, 4, 4]

    def test_task_indices_follow_the_sequence(self, source):
        stream = dynamic_task_stream(source, class_sequence=[3, 1],
                                     samples_per_task=2, rng=0)
        assert [sample.task_index for sample in stream] == [0, 0, 1, 1]

    def test_every_task_has_the_same_sample_count(self, source):
        """The paper's dynamic protocol presents equal-sized tasks."""
        stream = dynamic_task_stream(source, samples_per_task=3, rng=0)
        labels = np.array([sample.label for sample in stream])
        counts = {digit: int((labels == digit).sum()) for digit in source.classes}
        assert set(counts.values()) == {3}

    def test_defaults_to_all_classes_in_ascending_order(self, source):
        stream = dynamic_task_stream(source, samples_per_task=1, rng=0)
        assert [sample.label for sample in stream] == list(range(10))

    def test_images_match_the_source_size(self, source):
        stream = dynamic_task_stream(source, class_sequence=[0],
                                     samples_per_task=2, rng=0)
        assert all(sample.image.shape == (8, 8) for sample in stream)

    def test_empty_sequence_rejected(self, source):
        with pytest.raises(ValueError, match="task sequence is empty"):
            dynamic_task_stream(source, class_sequence=[], samples_per_task=2)

    def test_single_task_stream(self, source):
        """A one-task sequence is valid and yields exactly one task."""
        stream = dynamic_task_stream(source, class_sequence=[7],
                                     samples_per_task=3, rng=0)
        assert [sample.label for sample in stream] == [7, 7, 7]
        assert {sample.task_index for sample in stream} == {0}

    def test_invalid_sample_count_rejected(self, source):
        with pytest.raises(ValueError):
            dynamic_task_stream(source, class_sequence=[0], samples_per_task=0)

    def test_seeded_streams_are_reproducible(self, source):
        a = dynamic_task_stream(source, class_sequence=[0, 1],
                                samples_per_task=2, rng=7)
        b = dynamic_task_stream(source, class_sequence=[0, 1],
                                samples_per_task=2, rng=7)
        for sample_a, sample_b in zip(a, b):
            np.testing.assert_array_equal(sample_a.image, sample_b.image)


class TestNonDynamicStream:
    def test_length_and_label_mixing(self, source):
        stream = nondynamic_stream(source, n_samples=40, rng=0)
        assert len(stream) == 40
        labels = {sample.label for sample in stream}
        assert len(labels) > 3  # classes are mixed, not consecutive

    def test_all_task_indices_are_zero(self, source):
        stream = nondynamic_stream(source, n_samples=10, rng=0)
        assert all(sample.task_index == 0 for sample in stream)

    def test_restricting_classes(self, source):
        stream = nondynamic_stream(source, n_samples=30, classes=[2, 7], rng=0)
        assert {sample.label for sample in stream}.issubset({2, 7})

    def test_empty_class_list_rejected(self, source):
        with pytest.raises(ValueError):
            nondynamic_stream(source, n_samples=10, classes=[])

    def test_invalid_sample_count_rejected(self, source):
        with pytest.raises(ValueError):
            nondynamic_stream(source, n_samples=0)


class TestTaskScheduleStream:
    def test_multi_class_tasks_share_one_task_index(self, source):
        stream = task_schedule_stream(source, [(0, 1), (2, 3)],
                                      samples_per_task=6, rng=0)
        assert len(stream) == 12
        first, second = stream[:6], stream[6:]
        assert {s.task_index for s in first} == {0}
        assert {s.task_index for s in second} == {1}
        assert {s.label for s in first}.issubset({0, 1})
        assert {s.label for s in second}.issubset({2, 3})

    def test_bare_int_tasks_match_dynamic_stream_shape(self, source):
        stream = task_schedule_stream(source, [3, 1], samples_per_task=2, rng=0)
        assert [s.label for s in stream] == [3, 3, 1, 1]
        assert [s.task_index for s in stream] == [0, 0, 1, 1]

    def test_recurring_tasks_get_fresh_indices(self, source):
        stream = task_schedule_stream(source, [0, 1, 0], samples_per_task=1, rng=0)
        assert [s.task_index for s in stream] == [0, 1, 2]
        assert [s.label for s in stream] == [0, 1, 0]

    def test_seeded_schedules_are_reproducible(self, source):
        a = task_schedule_stream(source, [(0, 1), (2,)], samples_per_task=4, rng=5)
        b = task_schedule_stream(source, [(0, 1), (2,)], samples_per_task=4, rng=5)
        assert [s.label for s in a] == [s.label for s in b]
        for sample_a, sample_b in zip(a, b):
            np.testing.assert_array_equal(sample_a.image, sample_b.image)

    def test_empty_schedule_rejected(self, source):
        with pytest.raises(ValueError, match="task schedule is empty"):
            task_schedule_stream(source, [], samples_per_task=2)

    def test_empty_task_rejected(self, source):
        with pytest.raises(ValueError, match="task 1 .* no classes"):
            task_schedule_stream(source, [(0,), ()], samples_per_task=2)

    def test_invalid_sample_count_rejected(self, source):
        with pytest.raises(ValueError):
            task_schedule_stream(source, [(0,)], samples_per_task=0)


class TestNormalizeTaskSchedule:
    def test_mixed_ints_and_groups(self):
        assert normalize_task_schedule([0, (1, 2), [3]]) == [(0,), (1, 2), (3,)]

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="at least one task"):
            normalize_task_schedule([])

    def test_empty_task_rejected(self):
        with pytest.raises(ValueError, match="at least one class"):
            normalize_task_schedule([[0], []])


class TestStreamSample:
    def test_fields(self):
        sample = StreamSample(image=np.zeros((2, 2)), label=3, task_index=1)
        assert sample.label == 3
        assert sample.task_index == 1
        assert sample.image.shape == (2, 2)

"""Tests for the spike record behind spurious-update reduction (Alg. 2).

A :class:`~repro.core.spurious.SpikeRecord` reads counts its driver keeps
(the engine's step plan, or ``Driver`` below) and counts nothing itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.spurious import SpikeRecord


class Driver:
    """Keeps the counts, as the step plan does, and hands out a record."""

    def __init__(self, n_pre: int, n_post: int) -> None:
        self.pre_counts = np.zeros(n_pre, dtype=np.int64)
        self.post_counts = np.zeros(n_post, dtype=np.int64)
        self.record = SpikeRecord(self.pre_counts, self.post_counts)

    def step(self, pre, post) -> None:
        self.pre_counts += np.asarray(pre, dtype=bool)
        self.post_counts += np.asarray(post, dtype=bool)


class TestConstruction:
    def test_starts_empty(self):
        record = Driver(4, 3).record
        assert record.max_pre == 0
        assert record.max_post == 0
        assert not record.post_spiked_in_window

    def test_a_record_opened_mid_run_starts_its_window_there(self):
        driver = Driver(2, 2)
        driver.step([1, 0], [1, 0])
        record = SpikeRecord(driver.pre_counts, driver.post_counts)
        assert record.max_post == 1
        assert not record.post_spiked_in_window


class TestAccumulation:
    def test_counts_accumulate_per_neuron(self):
        driver = Driver(3, 2)
        driver.step([1, 0, 1], [0, 1])
        driver.step([1, 0, 0], [0, 1])
        assert driver.record.pre_counts is driver.pre_counts
        np.testing.assert_array_equal(driver.record.pre_counts, [2, 0, 1])
        np.testing.assert_array_equal(driver.record.post_counts, [0, 2])

    def test_max_statistics(self):
        driver = Driver(3, 2)
        for _ in range(5):
            driver.step([1, 1, 0], [1, 0])
        assert driver.record.max_pre == 5
        assert driver.record.max_post == 5

    def test_most_active_post(self):
        driver = Driver(2, 3)
        driver.step([0, 0], [0, 1, 1])
        driver.step([0, 0], [0, 0, 1])
        assert driver.record.most_active_post == 2

    def test_the_record_counts_nothing_itself(self):
        record = SpikeRecord(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64))
        assert not hasattr(record, "add") and not hasattr(record, "update")
        assert record.max_pre == record.max_post == 0


class TestWindowing:
    def test_window_flag_tracks_postsynaptic_spikes(self):
        driver = Driver(2, 2)
        driver.step([1, 1], [0, 0])
        assert not driver.record.post_spiked_in_window
        driver.step([0, 0], [1, 0])
        assert driver.record.post_spiked_in_window

    def test_close_window_resets_only_window_counts(self):
        driver = Driver(2, 2)
        driver.step([1, 1], [1, 1])
        driver.record.close_window()
        assert not driver.record.post_spiked_in_window
        # Sample-level counts survive the window boundary.
        assert driver.record.max_post == 1
        assert driver.record.max_pre == 1

    def test_a_new_presentation_opens_a_fresh_record(self):
        driver = Driver(2, 2)
        driver.step([1, 1], [1, 1])
        fresh = Driver(2, 2)  # the next run's counts start at zero
        assert fresh.record.max_pre == fresh.record.max_post == 0
        assert not fresh.record.post_spiked_in_window
        assert driver.record.max_post == 1

    def test_paper_figure7_scenario(self):
        """Fig. 7: a window with postsynaptic spikes potentiates, one without
        depresses — the record exposes exactly that decision signal."""
        driver = Driver(4, 2)
        # First window: both pre and post spikes occur.
        for _ in range(3):
            driver.step([1, 1, 0, 0], [1, 0])
        first_window_had_post = driver.record.post_spiked_in_window
        driver.record.close_window()
        # Second window: only presynaptic spikes.
        for _ in range(3):
            driver.step([1, 0, 1, 0], [0, 0])
        second_window_had_post = driver.record.post_spiked_in_window
        assert first_window_had_post
        assert not second_window_had_post

"""Unit tests for the continual-learning evaluation harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.continual import ContinualResult, run_scenario_protocol
from repro.models.spikedyn_model import SpikeDynModel
from repro.scenarios.spec import Phase, ScenarioSpec


def make_result(matrix, phases, tasks):
    return ContinualResult(
        model_name="m",
        scenario="s",
        phases=phases,
        task_classes=tasks,
        accuracy_matrix=np.asarray(matrix, dtype=float),
    )


def incremental_phases(n):
    return [Phase(index=i, task_id=i, classes=(i,)) for i in range(n)]


class TestContinualMetrics:
    def test_average_accuracy_is_the_last_row_mean(self):
        result = make_result(
            [[0.8, 0.1], [0.6, 0.9]], incremental_phases(2), {0: (0,), 1: (1,)}
        )
        assert result.average_accuracy == pytest.approx(0.75)
        np.testing.assert_array_equal(result.accuracy_matrix[-1], [0.6, 0.9])

    def test_average_forgetting_uses_the_best_earlier_accuracy(self):
        # Task 0 peaked at 0.9 (phase 0) and ended at 0.5 -> forgot 0.4.
        # Task 1 is last-trained at the final phase -> no history, excluded.
        result = make_result(
            [[0.9, 0.2], [0.5, 0.8]], incremental_phases(2), {0: (0,), 1: (1,)}
        )
        assert result.average_forgetting == pytest.approx(0.4)

    def test_backward_transfer_measures_final_minus_when_trained(self):
        result = make_result(
            [[0.9, 0.2], [0.5, 0.8]], incremental_phases(2), {0: (0,), 1: (1,)}
        )
        # Only task 0 has later phases: 0.5 - 0.9 = -0.4.
        assert result.backward_transfer == pytest.approx(-0.4)

    def test_forward_transfer_is_relative_to_chance(self):
        result = make_result(
            [[0.9, 0.3], [0.5, 0.8]], incremental_phases(2), {0: (0,), 1: (1,)}
        )
        # Task 1 before first training: 0.3; chance is 0.1.
        assert result.forward_transfer == pytest.approx(0.2)

    def test_recurring_task_uses_its_last_training_phase(self):
        phases = [
            Phase(index=0, task_id=0, classes=(0,)),
            Phase(index=1, task_id=1, classes=(1,)),
            Phase(index=2, task_id=0, classes=(0,)),
        ]
        result = make_result(
            [[0.9, 0.0], [0.4, 0.8], [0.7, 0.6]], phases, {0: (0,), 1: (1,)}
        )
        assert result.first_trained_phase(0) == 0
        assert result.last_trained_phase(0) == 2
        # Task 0 is last trained in the final phase -> excluded from BWT;
        # task 1: 0.6 - 0.8 = -0.2.
        assert result.backward_transfer == pytest.approx(-0.2)

    def test_phase_lookup_of_an_untrained_task_raises(self):
        result = make_result(
            [[0.9, 0.2], [0.5, 0.8]], incremental_phases(2), {0: (0,), 1: (1,)}
        )
        with pytest.raises(KeyError, match="never trained"):
            result.first_trained_phase(7)
        with pytest.raises(KeyError, match="never trained"):
            result.last_trained_phase(7)

    def test_retention_curve_starts_at_first_training(self):
        result = make_result(
            [[0.9, 0.2], [0.5, 0.8]], incremental_phases(2), {0: (0,), 1: (1,)}
        )
        assert result.retention_curve(0) == [0.9, 0.5]
        assert result.retention_curve(1) == [0.8]

    def test_single_phase_has_zero_forgetting_and_transfers(self):
        result = make_result([[0.7]], incremental_phases(1), {0: (0,)})
        assert result.average_forgetting == 0.0
        assert result.backward_transfer == 0.0
        assert result.forward_transfer == 0.0

    def test_unknown_task_rejected(self):
        result = make_result([[0.7]], incremental_phases(1), {0: (0,)})
        with pytest.raises(KeyError):
            result.retention_curve(9)

    def test_summary_contains_every_metric(self):
        result = make_result(
            [[0.9, 0.2], [0.5, 0.8]], incremental_phases(2), {0: (0,), 1: (1,)}
        )
        assert set(result.summary()) == {
            "average_accuracy", "average_forgetting",
            "backward_transfer", "forward_transfer",
        }


class TestRunScenarioProtocol:
    @pytest.fixture
    def spec(self):
        return ScenarioSpec(
            name="ci",
            schedule={"kind": "class_incremental", "tasks": [[0], [1]],
                      "samples_per_task": 2},
        )

    def test_matrix_shape_and_range(self, tiny_config, tiny_source, spec):
        model = SpikeDynModel(tiny_config)
        result = run_scenario_protocol(
            model, tiny_source, spec, eval_samples_per_class=2, rng=0
        )
        assert result.accuracy_matrix.shape == (2, 2)
        assert (result.accuracy_matrix >= 0.0).all()
        assert (result.accuracy_matrix <= 1.0).all()
        assert result.scenario == "ci"
        assert result.task_classes == {0: (0,), 1: (1,)}
        # Chance is relative to the scenario's two declared classes, not the
        # full ten-digit universe.
        assert result.chance_level == pytest.approx(0.5)

    def test_fixed_seed_is_deterministic(self, tiny_config, tiny_source, spec):
        first = run_scenario_protocol(
            SpikeDynModel(tiny_config), tiny_source, spec,
            eval_samples_per_class=2, rng=3,
        )
        second = run_scenario_protocol(
            SpikeDynModel(tiny_config), tiny_source, spec,
            eval_samples_per_class=2, rng=3,
        )
        np.testing.assert_array_equal(
            first.accuracy_matrix, second.accuracy_matrix
        )

    def test_invalid_eval_settings_rejected(self, tiny_config, tiny_source, spec):
        with pytest.raises(ValueError):
            run_scenario_protocol(
                SpikeDynModel(tiny_config), tiny_source, spec,
                eval_samples_per_class=0, rng=0,
            )

"""Tests for the per-figure/table experiment drivers.

These run every driver at a very small scale and check the structure and the
robust qualitative properties of the results (orderings that follow directly
from operation counts, and value ranges).  ``repro run-all --scale small``
runs the same drivers at a larger scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimation.hardware import GTX_1080_TI, JETSON_NANO
from repro.experiments import (
    gpu_specification_table,
    run_analytical_validation,
    run_architecture_reduction,
    run_confusion_study,
    run_decay_theta_sweep,
    run_dynamic_accuracy_comparison,
    run_energy_comparison,
    run_mechanism_ablation,
    run_model_search_study,
    run_motivation_study,
    run_nondynamic_accuracy_comparison,
    run_processing_time_study,
)
from repro.experiments.ablation import ABLATION_VARIANTS
from repro.experiments.common import ExperimentScale
from repro.experiments.fig04_architecture import (
    LABEL_BASELINE_ARCH,
    LABEL_OPTIMIZED_ARCH,
)

#: 28x28 inputs at the analytical-model validation's sizes (Fig. 5a): the
#: input projection no longer dwarfs the excitatory layer, so the memory
#: error's trend shows.
FIG5_SCALE = ExperimentScale.tiny(image_size=28, network_sizes=(50, 100, 200, 400),
                                  t_sim=100.0)


def assert_fractions(protocol):
    """Every per-task recent and final accuracy of ``protocol`` is in [0, 1]."""
    for task in protocol.class_sequence:
        assert 0.0 <= protocol.recent_task_accuracy[task] <= 1.0
        assert 0.0 <= protocol.final_task_accuracy[task] <= 1.0


class TestFig01Motivation:
    def test_structure_and_energy_ordering(self, tiny_scale):
        result = run_motivation_study(tiny_scale, energy_measurement_samples=1)
        for label in tiny_scale.network_labels:
            training = result.normalized_training_energy[label]
            inference = result.normalized_inference_energy[label]
            assert training["baseline"] == 1.0
            assert inference["baseline"] == 1.0
            assert training["asp"] > 1.0  # ASP's energy overhead (Fig. 1b)
        assert set(result.accuracy_per_task) == {"baseline", "asp"}
        for protocol in result.accuracy_per_task.values():
            assert list(protocol.class_sequence) == list(tiny_scale.class_sequence)
            assert_fractions(protocol)
        text = result.to_text()
        assert "Fig. 1(b)" in text and "Fig. 1(c)" in text


class TestFig04Architecture:
    def test_memory_and_energy_savings(self, tiny_scale):
        result = run_architecture_reduction(tiny_scale, energy_measurement_samples=1,
                                            include_accuracy_profile=False)
        for label in tiny_scale.network_labels:
            assert result.memory_savings(label) > 0.0
            assert result.energy_savings(label) > 0.0
            entries = result.memory_bytes[label]
            assert entries[LABEL_OPTIMIZED_ARCH] < entries[LABEL_BASELINE_ARCH]
        # The eliminated inhibitory layer grows quadratically with n_exc, so
        # the saving grows with the network.
        smallest, largest = tiny_scale.network_labels[0], tiny_scale.network_labels[-1]
        assert result.memory_savings(largest) > result.memory_savings(smallest)
        assert result.accuracy_profiles == {}

    def test_accuracy_profile_panel(self, tiny_scale):
        result = run_architecture_reduction(tiny_scale, energy_measurement_samples=1,
                                            include_accuracy_profile=True)
        assert set(result.accuracy_profiles) == {LABEL_BASELINE_ARCH,
                                                 LABEL_OPTIMIZED_ARCH}
        baseline = result.accuracy_profiles[LABEL_BASELINE_ARCH]
        optimized = result.accuracy_profiles[LABEL_OPTIMIZED_ARCH]
        assert list(baseline.class_sequence) == list(optimized.class_sequence)
        assert_fractions(baseline)
        assert_fractions(optimized)
        assert "Fig. 4(d)" in result.to_text()


class TestFig05Analytical:
    def test_errors_and_speedup(self, tiny_scale):
        result = run_analytical_validation(tiny_scale, actual_run_samples=2)
        assert len(result.rows) == len(tiny_scale.network_sizes)
        for row in result.rows:
            assert row.analytical_memory_bytes <= row.actual_memory_bytes
            assert 0.0 <= row.memory_error < 0.5
            assert row.training_energy_error < 0.5
            assert row.inference_energy_error < 0.5
        assert result.exploration_speedup > 100.0
        assert "Fig. 5" in result.to_text()

    def test_explicit_network_sizes(self, tiny_scale):
        result = run_analytical_validation(tiny_scale, network_sizes=[6],
                                           actual_run_samples=1)
        assert [row.n_exc for row in result.rows] == [6]

    def test_memory_error_shrinks_with_network_size(self):
        result = run_analytical_validation(FIG5_SCALE, actual_run_samples=1)
        errors = [row.memory_error for row in result.rows]
        assert [row.n_exc for row in result.rows] == [50, 100, 200, 400]
        assert all(later < earlier for earlier, later in zip(errors, errors[1:]))
        assert max(errors) < 0.10
        assert errors[-1] < 0.05  # the paper's N400

    def test_energy_errors_at_28_px(self):
        result = run_analytical_validation(FIG5_SCALE, network_sizes=(100, 200),
                                           actual_run_samples=2)
        for row in result.rows:
            assert row.analytical_memory_bytes <= row.actual_memory_bytes
            assert row.training_energy_error < 0.25
            assert row.inference_energy_error < 0.25


class TestFig06Sweep:
    def test_paper_style_slices(self, tiny_scale):
        result = run_decay_theta_sweep(
            tiny_scale, w_decay_values=(None, 1e-2), theta_scales=(1.0, 0.5)
        )
        # 2 decay values at theta=1 plus 1 extra theta at the selected decay.
        assert len(result.points) == 3
        labels = [point.label for point in result.points]
        assert labels[0] == "no / 1"
        assert len(set(labels)) == 3
        for point in result.points:
            assert 0.0 <= point.mean_recent_accuracy <= 1.0
        best = result.best_point()
        assert best.mean_recent_accuracy == max(
            point.mean_recent_accuracy for point in result.points
        )

    def test_an_empty_sweep_has_no_best_point(self, tiny_scale):
        from repro.experiments.fig06_sweep import DecayThetaSweepResult

        with pytest.raises(ValueError, match="no points"):
            DecayThetaSweepResult(scale=tiny_scale).best_point()

    def test_full_grid(self, tiny_scale):
        result = run_decay_theta_sweep(
            tiny_scale, w_decay_values=(None, 1e-2), theta_scales=(1.0, 0.5),
            full_grid=True,
        )
        assert len(result.points) == 4

    def test_empty_sweeps_rejected(self, tiny_scale):
        with pytest.raises(ValueError):
            run_decay_theta_sweep(tiny_scale, w_decay_values=())
        with pytest.raises(ValueError):
            run_decay_theta_sweep(tiny_scale, theta_scales=())


class TestFig09Accuracy:
    def test_dynamic_comparison_structure(self, tiny_scale):
        result = run_dynamic_accuracy_comparison(tiny_scale)
        for label in tiny_scale.network_labels:
            assert set(result.dynamic[label]) == {"baseline", "asp", "spikedyn"}
            for protocol in result.dynamic[label].values():
                assert list(protocol.class_sequence) == list(tiny_scale.class_sequence)
                assert_fractions(protocol)
        improvement = result.improvement_over(tiny_scale.network_labels[0],
                                              reference="baseline")
        assert set(improvement) == {"recent", "final"}
        assert "most recently learned" in result.to_text()

    def test_nondynamic_comparison_structure(self, tiny_scale):
        result = run_nondynamic_accuracy_comparison(tiny_scale,
                                                    models=("spikedyn",))
        for label in tiny_scale.network_labels:
            protocol = result.nondynamic[label]["spikedyn"]
            assert list(protocol.checkpoints) == list(tiny_scale.nondynamic_checkpoints)
            for checkpoint in protocol.checkpoints:
                assert 0.0 <= protocol.accuracy_at_checkpoint[checkpoint] <= 1.0
            assert result.final_accuracy(label, "spikedyn") == protocol.final_accuracy
        assert "number of training samples" in result.to_text()


class TestFig10Confusion:
    def test_confusion_structure(self, tiny_scale):
        result = run_confusion_study(tiny_scale)
        evaluated = list(tiny_scale.class_sequence)
        unevaluated = sorted(set(range(10)) - set(evaluated))
        for label in tiny_scale.network_labels:
            matrix = result.confusion(label)
            assert matrix.shape == (10, 10)
            assert matrix.dtype.kind in "iu"
            assert np.all(matrix >= 0)
            # Each evaluated task contributes exactly its evaluation samples.
            assert list(matrix[evaluated].sum(axis=1)) == (
                [tiny_scale.eval_samples_per_class] * len(evaluated))
            assert not matrix[unevaluated].any()
            target, predicted = result.most_confused(label)
            assert 0 <= target < 10 and 0 <= predicted < 10
        assert "confusion matrix" in result.to_text()


class TestFig11Energy:
    def test_orderings_and_savings(self, tiny_scale):
        result = run_energy_comparison(tiny_scale,
                                       devices=[GTX_1080_TI, JETSON_NANO],
                                       energy_measurement_samples=1)
        assert set(result.normalized_training) == {"GTX 1080 Ti", "Jetson Nano"}
        for device in result.normalized_training:
            for label in tiny_scale.network_labels:
                training = result.normalized_training[device][label]
                inference = result.normalized_inference[device][label]
                assert training["baseline"] == inference["baseline"] == 1.0
                # The paper's orderings: ASP adds an overhead over the
                # baseline in training, SpikeDyn undercuts both partners in
                # both phases.
                assert training["asp"] > training["baseline"] > training["spikedyn"]
                assert inference["spikedyn"] < inference["baseline"]
                assert inference["spikedyn"] < inference["asp"]
        savings = result.savings_vs("asp")
        assert savings["training"] > 0.0
        assert savings["inference"] > 0.0
        # Normalized energies are device independent (same operation counts),
        # so both devices report identical tables.
        np.testing.assert_allclose(
            [result.normalized_training["GTX 1080 Ti"][label]["asp"]
             for label in tiny_scale.network_labels],
            [result.normalized_training["Jetson Nano"][label]["asp"]
             for label in tiny_scale.network_labels],
        )


class TestTables:
    def test_table1_lists_all_devices(self):
        table = gpu_specification_table()
        for device in ("Jetson Nano", "GTX 1080 Ti", "RTX 2080 Ti"):
            assert device in table

    def test_table2_structure(self, tiny_scale):
        study = run_processing_time_study(tiny_scale, energy_measurement_samples=1)
        devices = ("Jetson Nano", "GTX 1080 Ti", "RTX 2080 Ti")
        labels = tiny_scale.network_labels
        for label in labels:
            for device in devices:
                # Training presents 6x more samples than inference.
                assert (study.hours("training", device, label)
                        > study.hours("inference", device, label) > 0)
            for process in ("training", "inference"):
                nano, gtx, rtx = (study.hours(process, device, label)
                                  for device in devices)
                assert nano > gtx > rtx
        for device in devices:
            assert (study.hours("training", device, labels[-1])
                    >= study.hours("training", device, labels[0]))
        assert "Table II" in study.to_text()


class TestAlg1Search:
    def test_selected_sizes_grow_with_the_budget(self, tiny_scale):
        study = run_model_search_study(tiny_scale, n_add=4)
        sizes = study.selected_sizes()
        selected = [size for size in sizes.values() if size is not None]
        assert selected, "at least one budget should admit a model"
        budgets = sorted(study.results)
        chosen = [sizes[budget] for budget in budgets if sizes[budget] is not None]
        assert chosen == sorted(chosen)
        for budget, result in study.results.items():
            for candidate in result.feasible_candidates:
                assert candidate.memory_bytes <= budget
            if result.selected is not None:
                assert result.selected.n_exc == max(
                    candidate.n_exc for candidate in result.feasible_candidates)
            if result.candidates:
                assert result.exploration_time_seconds() < result.actual_run_time_seconds(
                    tiny_scale.n_training_samples, tiny_scale.n_inference_samples)
        assert "Alg. 1" in study.to_text()

    def test_explicit_budgets(self, tiny_scale):
        study = run_model_search_study(tiny_scale, memory_budgets_bytes=[1e4],
                                       n_add=4)
        assert list(study.results) == [1e4]


class TestAblation:
    def test_variants_and_energy_ordering(self, tiny_scale):
        result = run_mechanism_ablation(tiny_scale, energy_measurement_samples=1)
        assert set(result.variants) == set(ABLATION_VARIANTS)
        normalized = result.normalized_training_energy()
        assert normalized["full"] == 1.0
        assert normalized["no_update_gating"] > 1.0
        for entry in result.variants.values():
            assert 0.0 <= entry.mean_recent_accuracy <= 1.0
            assert 0.0 <= entry.mean_final_accuracy <= 1.0
            assert entry.training_energy_joules > 0.0
        assert "Mechanism ablation" in result.to_text()

    @pytest.mark.parametrize("variants", [("full", "no_weight_decay"), ("full",)])
    def test_subset_of_variants(self, tiny_scale, variants):
        result = run_mechanism_ablation(tiny_scale, variants=variants,
                                        energy_measurement_samples=1)
        assert set(result.variants) == set(variants)
        assert result.normalized_training_energy()["full"] == 1.0

    @pytest.mark.parametrize("variants", [("full", "no_neurons"),
                                          ("no_weight_decay",), ()],
                             ids=["unknown", "no-full", "empty"])
    def test_unknown_variant_rejected(self, tiny_scale, variants):
        with pytest.raises(ValueError):
            run_mechanism_ablation(tiny_scale, variants=variants)


class TestEventStreamStudy:
    def test_equivalence_and_event_accounting(self, tiny_scale):
        from repro.experiments import run_eventstream_study

        result = run_eventstream_study(
            tiny_scale, classes=(0, 1), duration=300.0,
            n_bursts=3, burst_steps=4,
        )
        assert result.backend == "sparse"
        assert result.equivalence["counts_match"] is True
        assert result.equivalence["predictions_match"] is True
        # The whole point: the executed fraction must be far below one.
        assert result.event_ops["steps_skipped"] > 0
        assert result.event_ops["executed_step_fraction"] < 0.5
        assert result.event_ops["event_total_ops"] \
            < result.event_ops["stepped_total_ops"]
        for record in result.streams:
            assert record["density"] < 0.02
        text = result.to_text()
        assert "events_processed=" in text and "steps_skipped=" in text
        assert "energy proxy" in text

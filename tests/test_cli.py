"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENT_DRIVERS, SCALE_PRESETS, build_parser, main


class TestParser:
    def test_every_subcommand_is_registered(self):
        parser = build_parser()
        subparser_actions = [action for action in parser._actions
                             if hasattr(action, "choices") and action.choices]
        commands = set(subparser_actions[0].choices)
        assert commands == {"info", "train", "evaluate", "search", "energy",
                            "reproduce", "run-all", "scenarios", "serve",
                            "cache", "ledger", "trace"}

    def test_reproduce_knows_every_driver(self):
        assert set(EXPERIMENT_DRIVERS) == {
            "table1", "table2", "fig1", "fig4", "fig5", "fig6",
            "fig9-dynamic", "fig9-nondynamic", "fig10", "fig11",
            "alg1", "ablation", "eventstream",
            "scen-classinc", "scen-recurring", "scen-drift", "scen-corrupt",
        }

    @pytest.mark.parametrize("command", [["train"], ["evaluate", "model-dir"],
                                         ["search"], ["energy"],
                                         ["reproduce", "fig5"], ["run-all"],
                                         ["serve", "model-dir"]],
                             ids=lambda command: command[0])
    def test_no_subcommand_accepts_backend(self, command, capsys):
        with pytest.raises(SystemExit):
            main([*command, "--backend", "sparse"])
        assert "--backend" in capsys.readouterr().err

    def test_scale_presets(self):
        assert set(SCALE_PRESETS) == {"tiny", "small", "paper"}

    def test_missing_command_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_experiment_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig99"])


class TestInfo:
    def test_lists_models_devices_and_experiments(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "spikedyn" in output
        assert "Jetson Nano" in output
        assert "fig11" in output
        assert "kernels    : sparse" in output
        for retired in ("dense", "float32", "numba", "auto", "eventqueue"):
            assert retired in output


class TestTrainAndEvaluate:
    def test_train_prints_per_class_accuracy(self, capsys):
        exit_code = main([
            "train", "--model", "spikedyn", "--n-exc", "8", "--image-size", "8",
            "--t-sim", "20", "--classes", "0", "1", "--samples-per-class", "2",
            "--eval-per-class", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "digit-0" in output and "digit-1" in output
        assert "accuracy_%" in output

    def test_train_save_then_evaluate(self, tmp_path, capsys):
        save_dir = str(tmp_path / "model")
        assert main([
            "train", "--model", "spikedyn", "--n-exc", "8", "--image-size", "8",
            "--t-sim", "20", "--classes", "0", "1", "--samples-per-class", "2",
            "--eval-per-class", "2", "--save", save_dir,
        ]) == 0
        capsys.readouterr()

        assert main([
            "evaluate", save_dir, "--model", "spikedyn", "--n-exc", "8",
            "--image-size", "8", "--t-sim", "20", "--classes", "0", "1",
            "--eval-per-class", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "overall accuracy" in output

    def test_nondynamic_protocol_option(self, capsys):
        assert main([
            "train", "--protocol", "nondynamic", "--n-exc", "8",
            "--image-size", "8", "--t-sim", "20", "--classes", "0", "1",
            "--samples-per-class", "2", "--eval-per-class", "2",
        ]) == 0

    def test_evaluate_missing_model_fails(self, tmp_path, capsys):
        exit_code = main([
            "evaluate", str(tmp_path / "does_not_exist"), "--n-exc", "8",
            "--image-size", "8", "--t-sim", "20",
        ])
        assert exit_code == 1
        assert "could not load" in capsys.readouterr().err


class TestSearch:
    def test_search_selects_a_model(self, capsys):
        exit_code = main([
            "search", "--image-size", "8", "--t-sim", "20", "--n-add", "4",
            "--memory-kb", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "selected model" in output

    def test_search_with_impossible_budget_fails(self, capsys):
        exit_code = main([
            "search", "--image-size", "8", "--t-sim", "20", "--n-add", "4",
            "--memory-kb", "2", "--train-energy-j", "1e-12",
        ])
        assert exit_code == 1
        assert "no candidate" in capsys.readouterr().out


class TestEnergyAndReproduce:
    def test_energy_reports_all_three_models(self, capsys):
        assert main([
            "energy", "--image-size", "8", "--n-exc", "8", "--t-sim", "20",
            "--samples", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "baseline" in output and "asp" in output and "spikedyn" in output
        assert "training_vs_baseline" in output

    def test_energy_surfaces_event_engine_tallies(self, capsys):
        assert main([
            "energy", "--image-size", "8", "--n-exc", "8", "--t-sim", "20",
            "--samples", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "events_processed" in output and "steps_skipped" in output
        assert "event-driven execution" in output

    def test_reproduce_table1(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        assert "Jetson Nano" in capsys.readouterr().out

    def test_reproduce_fig5_at_tiny_scale(self, capsys):
        assert main(["reproduce", "fig5", "--scale", "tiny"]) == 0
        assert "analytical" in capsys.readouterr().out


class TestEvalBatchSizeFlag:
    def test_parser_accepts_the_flag(self):
        parser = build_parser()
        args = parser.parse_args(["train", "--eval-batch-size", "8"])
        assert args.eval_batch_size == 8

    def test_flag_defaults_to_batched_evaluation(self):
        parser = build_parser()
        args = parser.parse_args(["train"])
        assert args.eval_batch_size == 32

    def test_sequential_evaluation_via_batch_size_one(self, capsys):
        assert main([
            "train", "--model", "spikedyn", "--n-exc", "8", "--image-size", "8",
            "--t-sim", "20", "--classes", "0", "--samples-per-class", "2",
            "--eval-per-class", "2", "--eval-batch-size", "1",
        ]) == 0
        assert "digit-0" in capsys.readouterr().out

    def test_non_positive_batch_size_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--eval-batch-size", "0"])
        assert "must be >= 1" in capsys.readouterr().err


class TestRunnerCommands:
    def test_reproduce_through_the_runner(self, tmp_path, capsys):
        exit_code = main([
            "reproduce", "table1", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert exit_code == 0
        assert "Jetson Nano" in capsys.readouterr().out

    def test_reproduce_worker_failure_exits_nonzero(self, tmp_path, capsys):
        # A hanging job with a tiny timeout is recorded as timed out.
        from repro.experiments.common import ExperimentScale
        from repro.runner import JobSpec, ParallelRunner

        job = JobSpec(
            experiment="repro.runner.testing:hanging_driver",
            scale=ExperimentScale.tiny(),
            timeout=1.0,
        )
        record = ParallelRunner(1).run([job])[0]
        assert record.status == "timeout"

    def test_run_all_workers_zero_runs_in_process(self, tmp_path, capsys):
        exit_code = main([
            "run-all", "--scale", "tiny", "--workers", "0",
            "--drivers", "table1", "--out", str(tmp_path / "out"),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert exit_code == 0
        assert (tmp_path / "out" / "table1_gpu_specs.txt").is_file()

    def test_run_all_subset_writes_reports_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        exit_code = main([
            "run-all", "--scale", "tiny", "--workers", "2",
            "--drivers", "table1", "fig5",
            "--out", str(out_dir), "--cache-dir", str(tmp_path / "cache"),
        ])
        assert exit_code == 0
        assert (out_dir / "table1_gpu_specs.txt").is_file()
        assert (out_dir / "fig05_analytical_models.txt").is_file()
        assert (out_dir / "manifest.json").is_file()
        output = capsys.readouterr().out
        assert "2/2 experiments completed" in output

    def test_run_all_second_invocation_hits_cache(self, tmp_path, capsys):
        args = [
            "run-all", "--scale", "tiny", "--workers", "1",
            "--drivers", "table1",
            "--out", str(tmp_path / "r1"), "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        args[8] = str(tmp_path / "r2")  # fresh out dir, same cache
        assert main(args) == 0
        assert "cache" in capsys.readouterr().out

    def test_cache_info_list_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "run-all", "--scale", "tiny", "--workers", "1",
            "--drivers", "table1", "--out", str(tmp_path / "out"),
            "--cache-dir", cache_dir,
        ]) == 0
        capsys.readouterr()

        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "entries    : 1" in capsys.readouterr().out

        assert main(["cache", "list", "--cache-dir", cache_dir]) == 0
        assert "table1" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out

        assert main(["cache", "list", "--cache-dir", cache_dir]) == 0
        assert "empty" in capsys.readouterr().out

    def test_run_all_no_cache_resume_keeps_reports_and_succeeds(self, tmp_path, capsys):
        # With caching disabled, a resumed run serves completed jobs from the
        # manifest without report text; reports were already written when the
        # jobs first completed, and the resumed run must still exit 0.
        out_dir = tmp_path / "results"
        args = [
            "run-all", "--scale", "tiny", "--workers", "1",
            "--drivers", "table1", "--out", str(out_dir), "--no-cache",
        ]
        assert main(args) == 0
        report = out_dir / "table1_gpu_specs.txt"
        assert report.is_file()
        first_contents = report.read_text(encoding="utf-8")
        capsys.readouterr()

        assert main(args) == 0
        assert "manifest" in capsys.readouterr().out
        assert report.read_text(encoding="utf-8") == first_contents

    def test_run_all_warns_when_resumed_reports_are_unrecoverable(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        args = [
            "run-all", "--scale", "tiny", "--workers", "1",
            "--drivers", "table1", "--out", str(out_dir), "--no-cache",
        ]
        assert main(args) == 0
        (out_dir / "table1_gpu_specs.txt").unlink()
        capsys.readouterr()

        assert main(args) == 0
        captured = capsys.readouterr()
        assert "no report text available" in captured.err
        assert "table1_gpu_specs" in captured.err

    def test_reproduce_warns_about_ignored_runner_flags(self, capsys):
        assert main(["reproduce", "table1", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "Jetson Nano" in captured.out
        assert "--no-cache" in captured.err and "--workers" in captured.err


class TestScenariosCommand:
    def test_list_prints_the_catalogue(self, capsys):
        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("class-incremental", "recurring", "label-drift",
                     "corrupted", "imbalanced", "mixture"):
            assert name in output
        assert "schedule" in output and "transforms" in output

    def test_run_prints_matrix_and_summary(self, capsys):
        exit_code = main([
            "scenarios", "run", "class-incremental",
            "--models", "spikedyn", "--seed", "1",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "accuracy matrix of 'spikedyn'" in output
        assert "avg_forgetting" in output
        assert "bwt" in output and "fwt" in output

    def test_run_without_a_name_is_an_error(self, capsys):
        assert main(["scenarios", "run"]) == 2
        assert "needs a scenario name" in capsys.readouterr().err

    def test_unknown_scenario_is_a_clear_error(self, capsys):
        assert main(["scenarios", "run", "not-a-scenario"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "known scenarios" in err

    def test_list_with_a_name_is_an_error(self, capsys):
        assert main(["scenarios", "list", "recurring"]) == 2
        assert "takes no scenario name" in capsys.readouterr().err

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

    @pytest.mark.parametrize("model", ["spikedyn", "baseline"])
    def test_train_save_then_evaluate(self, model, tmp_path, capsys):
        """``evaluate`` takes the model class and configuration from the
        artifact, so it needs nothing but the directory."""
        save_dir = str(tmp_path / "model")
        assert main([
            "train", "--model", model, "--n-exc", "8", "--image-size", "8",
            "--t-sim", "20", "--classes", "0", "1", "--samples-per-class", "2",
            "--eval-per-class", "2", "--save", save_dir,
        ]) == 0
        capsys.readouterr()

        assert main([
            "evaluate", save_dir, "--classes", "0", "1", "--eval-per-class", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert f"evaluating {model!r} (8 excitatory neurons, 8x8 images)" in output
        assert "overall accuracy" in output

    def test_nondynamic_protocol_option(self, capsys):
        assert main([
            "train", "--protocol", "nondynamic", "--n-exc", "8",
            "--image-size", "8", "--t-sim", "20", "--classes", "0", "1",
            "--samples-per-class", "2", "--eval-per-class", "2",
        ]) == 0

    def test_evaluate_missing_model_fails(self, tmp_path, capsys):
        exit_code = main(["evaluate", str(tmp_path / "does_not_exist")])
        assert exit_code == 1
        assert "could not load" in capsys.readouterr().err

    def test_evaluate_rejects_a_non_square_input(self, tmp_path, capsys):
        from repro.core.config import SpikeDynConfig
        from repro.models import SpikeDynModel

        config = SpikeDynConfig.scaled_down(n_input=50, n_exc=4, t_sim=20.0)
        directory = SpikeDynModel(config).save(tmp_path / "model")
        assert main(["evaluate", str(directory)]) == 1
        assert "50 inputs" in capsys.readouterr().err


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

    def test_reproduce_table1(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        assert "Jetson Nano" in capsys.readouterr().out

    def test_reproduce_fig5_at_tiny_scale(self, capsys):
        assert main(["reproduce", "fig5", "--scale", "tiny"]) == 0
        assert "analytical" in capsys.readouterr().out


class TestFlagsACommandWouldIgnore:
    """Flags that would change nothing are not registered: ``evaluate``
    reads the model from the artifact, ``search`` sweeps ``n_exc`` on
    SpikeDyn, ``energy`` runs all three models, and evaluation always
    advances ``DEFAULT_EVAL_BATCH_SIZE`` samples per engine step."""

    @pytest.mark.parametrize("argv", [
        ["evaluate", "model-dir", "--model", "baseline"],
        ["evaluate", "model-dir", "--n-exc", "8"],
        ["evaluate", "model-dir", "--image-size", "8"],
        ["evaluate", "model-dir", "--t-sim", "20"],
        ["search", "--model", "spikedyn"],
        ["search", "--n-exc", "8"],
        ["energy", "--model", "spikedyn"],
        ["train", "--eval-batch-size", "8"],
        ["evaluate", "model-dir", "--eval-batch-size", "8"],
        ["search", "--eval-batch-size", "8"],
        ["energy", "--eval-batch-size", "8"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_evaluate_still_takes_a_seed(self):
        args = build_parser().parse_args(["evaluate", "model-dir", "--seed", "3"])
        assert args.seed == 3


class TestCountFlags:
    """Count flags are parsed as positive integers: a zero is a usage error,
    not a traceback from the library."""

    @pytest.mark.parametrize("argv", [
        ["train", "--samples-per-class", "0"],
        ["train", "--eval-per-class", "0"],
        ["train", "--n-exc", "0"],
        ["evaluate", "model-dir", "--eval-per-class", "0"],
        ["energy", "--samples", "0"],
        ["search", "--n-add", "0"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_a_zero_count_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {argv[-2]}: must be >= 1, got 0" in err


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

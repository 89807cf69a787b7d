"""CLI tests for ``repro serve`` (parser wiring and error paths)."""

from __future__ import annotations

import pytest

from repro.cli import _parse_model_spec, build_parser, main


class TestServeParser:
    def test_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "some/artifact"])
        assert args.artifacts == ["some/artifact"]
        assert args.registry is None
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.workers == 2
        assert args.shards == 0
        assert args.max_models == 4
        assert args.rate_rps is None
        assert args.breaker_failures == 5
        assert args.retries == 2
        assert args.max_batch == 32
        assert args.max_wait_ms == 5.0
        assert args.max_queue == 1024
        assert args.drift_window == 256
        assert not hasattr(args, "backend")
        assert not args.verbose

    def test_knobs_parse(self):
        parser = build_parser()
        args = parser.parse_args([
            "serve", "a", "b=path/to/b", "--port", "0", "--workers", "4",
            "--max-batch", "16", "--max-wait-ms", "2.5", "--max-queue", "64",
            "--drift-window", "32", "--drift-threshold", "2.0", "-v",
            "--shards", "2", "--registry", "reg", "--max-models", "2",
            "--rate-rps", "50", "--rate-burst", "100",
            "--breaker-failures", "3", "--breaker-window-s", "10",
            "--breaker-reset-s", "1", "--retries", "1",
            "--retry-backoff-s", "0.01",
        ])
        assert args.artifacts == ["a", "b=path/to/b"]
        assert args.port == 0
        assert args.workers == 4
        assert args.shards == 2
        assert args.registry == "reg"
        assert args.max_models == 2
        assert args.rate_rps == 50.0
        assert args.rate_burst == 100.0
        assert args.breaker_failures == 3
        assert args.breaker_window_s == 10.0
        assert args.breaker_reset_s == 1.0
        assert args.retries == 1
        assert args.retry_backoff_s == 0.01
        assert args.max_batch == 16
        assert args.max_wait_ms == 2.5
        assert args.max_queue == 64
        assert args.drift_window == 32
        assert args.drift_threshold == 2.0
        assert args.verbose

    def test_invalid_workers_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "a", "--workers", "0"])

    def test_invalid_shards_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "a", "--shards", "-1"])

    def test_no_artifacts_and_no_registry_is_a_usage_error(self, capsys):
        exit_code = main(["serve", "--port", "0"])
        assert exit_code == 2
        assert "--registry" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,name", [
        (["--rate-rps", "0"], "rate_rps"),
        (["--rate-rps", "nan"], "rate_rps"),
        (["--rate-rps", "10", "--rate-burst", "0.5"], "rate_burst"),
        (["--breaker-window-s", "nan"], "breaker_window_s"),
    ])
    def test_bad_limits_fail_at_startup(self, capsys, tmp_path, flags, name):
        """Checked before any artifact loads: the missing artifact is
        never reached, and the error names the setting."""
        exit_code = main(["serve", str(tmp_path / "missing"), "--port", "0",
                          "--no-ledger", *flags])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert name in err
        assert "missing" not in err


class TestModelSpecParsing:
    def test_explicit_name(self):
        assert _parse_model_spec("mnist=/data/art") == ("mnist", "/data/art")

    def test_registry_version_dir_uses_parent_name(self):
        assert _parse_model_spec("/reg/mnist/v0003") == \
            ("mnist", "/reg/mnist/v0003")

    def test_plain_dir_uses_basename(self):
        assert _parse_model_spec("/data/spikedyn") == \
            ("spikedyn", "/data/spikedyn")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            _parse_model_spec("=/data/art")


class TestServeHappyPath:
    def test_serve_boots_and_shuts_down_cleanly(self, artifact_dir, capsys,
                                                monkeypatch):
        """Cover the full serve path: load, bind, announce, drain, exit 0.

        ``serve_forever`` is patched to raise ``KeyboardInterrupt``
        immediately — exactly what Ctrl-C produces — so the command runs
        its whole lifecycle without blocking the test."""
        from repro.serving.server import ModelServer

        def interrupt(self):
            self.router.start()
            raise KeyboardInterrupt

        monkeypatch.setattr(ModelServer, "serve_forever", interrupt)
        exit_code = main(["serve", str(artifact_dir), "--port", "0",
                          "--workers", "1", "--max-batch", "4"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "serving spikedyn: spikedyn" in captured.out
        assert "listening on http://127.0.0.1:" in captured.out
        assert "backend=sparse" in captured.out
        assert "POST /v1/models/<name>/predict" in captured.out
        assert "GET /v1/healthz" in captured.out
        assert "GET /v1/metrics[.json]" in captured.out
        assert "shutting down" in captured.err

    def test_serve_with_explicit_name(self, artifact_dir, capsys, monkeypatch):
        from repro.serving.server import ModelServer

        def interrupt(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(ModelServer, "serve_forever", interrupt)
        exit_code = main(["serve", f"digits={artifact_dir}", "--port", "0",
                          "--workers", "1"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "serving digits: spikedyn" in out
        assert "backend=sparse" in out

    def test_serve_registry_only(self, artifact_dir, tmp_path, capsys,
                                 monkeypatch):
        """A server can start with zero pinned models and only a registry."""
        from repro.serving.server import ModelServer

        def interrupt(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(ModelServer, "serve_forever", interrupt)
        exit_code = main(["serve", "--registry", str(tmp_path / "reg"),
                          "--port", "0"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "registry:" in out
        assert "listening on" in out

    def test_serve_shards_announces_processes(self, artifact_dir, capsys,
                                              monkeypatch):
        from repro.serving.server import ModelServer

        def interrupt(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(ModelServer, "serve_forever", interrupt)
        exit_code = main(["serve", str(artifact_dir), "--port", "0",
                          "--shards", "1", "--max-batch", "4"])
        assert exit_code == 0
        assert "shards=1 processes" in capsys.readouterr().out


class TestServeErrors:
    def test_nonexistent_artifact_exits_1(self, tmp_path, capsys):
        exit_code = main(["serve", str(tmp_path / "ghost"), "--port", "0"])
        assert exit_code == 1
        assert "not a model artifact" in capsys.readouterr().err

    def test_unknown_model_name_exits_1(self, artifact_dir, tmp_path, capsys):
        """ArtifactError raised while building replicas (not just while
        loading) must also take the clean error path."""
        from repro.utils.serialization import load_json, save_json

        target = tmp_path / "unknown-model"
        target.mkdir()
        (target / "state.npz").write_bytes(
            (artifact_dir / "state.npz").read_bytes()
        )
        metadata = load_json(artifact_dir / "model.json")
        metadata["meta"]["name"] = "transformer"
        save_json(metadata, target / "model.json")
        exit_code = main(["serve", str(target), "--port", "0"])
        assert exit_code == 1
        assert "unknown model" in capsys.readouterr().err

    def test_corrupt_artifact_exits_1(self, tmp_path, capsys):
        directory = tmp_path / "broken"
        directory.mkdir()
        (directory / "model.json").write_text("{}", encoding="utf-8")
        (directory / "state.npz").write_bytes(b"not an npz")
        exit_code = main(["serve", str(directory), "--port", "0"])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_empty_model_name_exits_1(self, artifact_dir, capsys):
        exit_code = main(["serve", f"={artifact_dir}", "--port", "0"])
        assert exit_code == 1
        assert "empty model name" in capsys.readouterr().err

"""Structured-logging tests: bound context, JSON emission, env activation."""

from __future__ import annotations

import io
import json
import logging

import numpy as np
import pytest

from repro.observability.structlog import (
    LOG_JSON_ENV,
    LOG_LEVEL_ENV,
    StructLogger,
    _json_safe,
    configure_from_env,
    configure_structured_logging,
    get_struct_logger,
)


@pytest.fixture
def stream():
    return io.StringIO()


@pytest.fixture
def configured(stream):
    """A configured library logger whose handler is removed afterwards."""
    logger = configure_structured_logging(level=logging.DEBUG, stream=stream)
    yield logger
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_struct_handler", False):
            logger.removeHandler(handler)


def events(stream) -> list:
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestContext:
    def test_bind_returns_new_logger_and_merges(self):
        base = get_struct_logger("test.bind", run="r1")
        bound = base.bind(job="j1")
        assert base.context == {"run": "r1"}
        assert bound.context == {"job": "j1", "run": "r1"}
        assert bound is not base

    def test_bind_overrides_existing_keys(self):
        bound = get_struct_logger("test.bind", run="r1").bind(run="r2")
        assert bound.context == {"run": "r2"}

    def test_context_property_returns_a_copy(self):
        logger = get_struct_logger("test.bind", run="r1")
        logger.context["run"] = "tampered"
        assert logger.context == {"run": "r1"}

    def test_namespaced_under_repro(self):
        assert get_struct_logger("runner.worker").name == "repro.runner.worker"
        assert get_struct_logger().name == "repro"


class TestEmission:
    def test_event_is_one_json_object_with_standard_fields(self, configured, stream):
        log = get_struct_logger("test.emit", run="r1")
        log.info("job_started", experiment="fig5", workers=4)
        (event,) = events(stream)
        assert event["event"] == "job_started"
        assert event["level"] == "info"
        assert event["logger"] == "repro.test.emit"
        assert event["run"] == "r1"
        assert event["experiment"] == "fig5"
        assert event["workers"] == 4
        assert "ts" in event

    def test_call_fields_override_bound_context(self, configured, stream):
        get_struct_logger("test.emit", run="r1").info("e", run="r2")
        (event,) = events(stream)
        assert event["run"] == "r2"

    def test_level_gating(self, configured, stream):
        configured.setLevel(logging.WARNING)
        log = get_struct_logger("test.emit")
        log.debug("dropped")
        log.info("dropped_too")
        log.error("kept", code=7)
        (event,) = events(stream)
        assert event["event"] == "kept"
        assert event["level"] == "error"

    def test_unconfigured_logger_is_silent(self, capsys):
        # The NullHandler must suppress stdlib's lastResort stderr output.
        get_struct_logger("test.silent").error("invisible")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_reconfiguring_replaces_handler_instead_of_duplicating(self, stream):
        first = configure_structured_logging(stream=io.StringIO())
        logger = configure_structured_logging(stream=stream)
        try:
            get_struct_logger("test.emit").info("once")
            assert len(events(stream)) == 1
        finally:
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_struct_handler", False):
                    logger.removeHandler(handler)
        assert first is logger


class TestJsonSafe:
    def test_numpy_scalars_and_arrays_reduce_to_python(self):
        assert _json_safe(np.int64(3)) == 3
        assert _json_safe(np.float32(0.5)) == pytest.approx(0.5)
        assert _json_safe(np.arange(3)) == [0, 1, 2]

    def test_nested_containers(self):
        value = {"a": (np.int32(1), [np.float64(2.0)]), "b": {3}}
        assert _json_safe(value) == {"a": [1, [2.0]], "b": [3]}

    def test_exotic_objects_fall_back_to_str(self, configured, stream):
        class Exotic:
            def __str__(self):
                return "<exotic>"

        get_struct_logger("test.emit").info("e", thing=Exotic())
        (event,) = events(stream)
        assert event["thing"] == "<exotic>"


class TestEnvActivation:
    def test_unset_env_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv(LOG_JSON_ENV, raising=False)
        assert configure_from_env() is None

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", ""])
    def test_falsy_values_are_a_no_op(self, monkeypatch, value):
        monkeypatch.setenv(LOG_JSON_ENV, value)
        assert configure_from_env() is None

    def test_enabled_env_streams_json(self, monkeypatch, stream):
        monkeypatch.setenv(LOG_JSON_ENV, "1")
        monkeypatch.setenv(LOG_LEVEL_ENV, "debug")
        logger = configure_from_env(stream=stream)
        try:
            assert logger is not None
            assert logger.level == logging.DEBUG
            get_struct_logger("test.env").debug("visible")
            (event,) = events(stream)
            assert event["event"] == "visible"
        finally:
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_struct_handler", False):
                    logger.removeHandler(handler)

    def test_unknown_level_falls_back_to_info(self, monkeypatch, stream):
        monkeypatch.setenv(LOG_JSON_ENV, "yes")
        monkeypatch.setenv(LOG_LEVEL_ENV, "nonsense")
        logger = configure_from_env(stream=stream)
        try:
            assert logger.level == logging.INFO
        finally:
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_struct_handler", False):
                    logger.removeHandler(handler)


class TestImmutabilityContract:
    def test_handing_a_bound_logger_to_a_helper_never_leaks(self):
        base = get_struct_logger("test.leak", run="r1")

        def helper(log: StructLogger) -> StructLogger:
            return log.bind(helper="deep")

        helper(base)
        assert base.context == {"run": "r1"}

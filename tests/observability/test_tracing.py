"""Unit tests for the stdlib tracing primitives."""

from __future__ import annotations

import io
import json
import logging
import os

import pytest

from repro.observability.ledger import RunLedger
from repro.observability.structlog import (
    configure_structured_logging,
    get_struct_logger,
)
from repro.observability.tracing import (
    KIND_SPAN,
    TRACE_ENV,
    TRACE_HEADER,
    TraceContext,
    current_trace,
    derive_trace_id,
    new_trace_id,
    record_span,
    span,
    trace_fields,
    trace_id_for_job,
    trace_id_for_request,
    trace_scope,
    tracing_forced,
)


class TestTraceIds:
    def test_derivation_is_deterministic(self):
        assert derive_trace_id("a", 1) == derive_trace_id("a", 1)
        assert derive_trace_id("a", 1) != derive_trace_id("a", 2)

    def test_request_and_job_namespaces_do_not_collide(self):
        assert trace_id_for_request("x") != trace_id_for_job("x")

    def test_ids_are_16_hex_chars(self):
        for value in (trace_id_for_request(7), trace_id_for_job("k"), new_trace_id()):
            assert len(value) == 16
            int(value, 16)

    def test_new_trace_ids_are_unique(self):
        assert new_trace_id() != new_trace_id()


class TestTraceContext:
    def test_child_keeps_trace_and_links_parent(self):
        root = TraceContext(trace_id="t1")
        child = root.child()
        grandchild = child.child()
        assert child.trace_id == "t1"
        assert child.parent_span_id is None  # root scope has no span id
        assert child.span_id is not None
        assert grandchild.parent_span_id == child.span_id
        assert child.span_id != grandchild.span_id

    def test_child_retry_override_and_inheritance(self):
        context = TraceContext(trace_id="t1").child(retry=2)
        assert context.retry == 2
        assert context.child().retry == 2  # inherited
        assert context.child(retry=0).retry == 0  # overridable

    def test_dict_round_trip(self):
        context = TraceContext(trace_id="t1").child(retry=1).child()
        restored = TraceContext.from_dict(context.to_dict())
        assert restored == context

    def test_to_dict_omits_unset_fields(self):
        assert TraceContext(trace_id="t1").to_dict() == {"trace_id": "t1"}

    def test_from_headers_reads_the_trace_header(self):
        restored = TraceContext.from_headers({TRACE_HEADER: "abc-123"})
        assert restored is not None
        assert restored.trace_id == "abc-123"
        assert restored.span_id is None

    def test_from_headers_accepts_lowercase_key(self):
        restored = TraceContext.from_headers({TRACE_HEADER.lower(): "abc"})
        assert restored is not None and restored.trace_id == "abc"

    def test_from_headers_absent_is_none(self):
        assert TraceContext.from_headers({}) is None

    @pytest.mark.parametrize("bad", ["", "  ", "-leading", "has space", "a" * 65,
                                     "semi;colon"])
    def test_from_headers_rejects_malformed_ids(self, bad):
        with pytest.raises(ValueError):
            TraceContext.from_headers({TRACE_HEADER: bad})


class TestTracingForced:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert not tracing_forced()

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("on", True),
        ("0", False), ("false", False), ("off", False), ("", False),
    ])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv(TRACE_ENV, value)
        assert tracing_forced() is expected


class TestTraceScope:
    def test_none_scope_is_a_no_op(self):
        with trace_scope(None) as active:
            assert active is None
            assert current_trace() is None

    def test_scope_installs_and_restores_context_and_sink(self):
        context = TraceContext(trace_id="t1")
        sink = []
        assert current_trace() is None
        with trace_scope(context, sink=sink.append):
            assert current_trace() is context
            with span("inside"):
                pass
        assert current_trace() is None
        # The sink is restored too: a later scope without one records nowhere.
        with trace_scope(TraceContext(trace_id="t2")):
            with span("after"):
                pass
        assert [record["name"] for record in sink] == ["inside"]

    def test_trace_fields_reflect_active_context(self):
        assert trace_fields() == {}
        with trace_scope(TraceContext(trace_id="t1")):
            assert trace_fields() == {"trace_id": "t1"}
        with trace_scope(TraceContext(trace_id="t1").child()) as context:
            assert trace_fields() == {"trace_id": "t1", "span_id": context.span_id}


class TestSpan:
    def test_span_is_inert_without_active_trace(self):
        sink = []
        with span("kernel", sink=sink.append) as timer:
            assert not timer.active
        assert sink == []

    def test_span_records_to_contextvar_sink(self):
        sink = []
        with trace_scope(TraceContext(trace_id="t1"), sink=sink.append):
            with span("kernel", shared_batch=3):
                pass
        (entry,) = sink
        assert entry["kind"] == KIND_SPAN
        assert entry["name"] == "kernel"
        assert entry["trace_id"] == "t1"
        assert entry["pid"] == os.getpid()
        assert entry["duration_ms"] >= 0.0
        assert entry["shared_batch"] == 3
        assert "parent_span_id" not in entry  # child of the root scope

    def test_nested_spans_link_parent_child(self):
        sink = []
        with trace_scope(TraceContext(trace_id="t1"), sink=sink.append):
            with span("outer") as outer:
                with span("inner"):
                    pass
        inner_entry, outer_entry = sink  # inner exits (and records) first
        assert inner_entry["name"] == "inner"
        assert inner_entry["parent_span_id"] == outer.context.span_id
        assert outer_entry["span_id"] == outer.context.span_id

    def test_explicit_sink_wins_over_contextvar_sink(self):
        ambient, explicit = [], []
        with trace_scope(TraceContext(trace_id="t1"), sink=ambient.append):
            with span("kernel", sink=explicit.append):
                pass
        assert ambient == []
        assert len(explicit) == 1

    def test_retry_flag_lands_in_the_record(self):
        sink = []
        with trace_scope(TraceContext(trace_id="t1"), sink=sink.append):
            with span("shard_rpc", retry=2):
                pass
        assert sink[0]["retry"] == 2

    def test_span_records_even_when_body_raises(self):
        sink = []
        with trace_scope(TraceContext(trace_id="t1"), sink=sink.append):
            with pytest.raises(RuntimeError):
                with span("kernel"):
                    raise RuntimeError("boom")
        assert sink[0]["name"] == "kernel"


class TestRecordSpan:
    def test_requires_sink_and_span_context(self):
        context = TraceContext(trace_id="t1").child()
        assert record_span(None, context, "x", 0.1) is None
        assert record_span([].append, None, "x", 0.1) is None
        # A root scope (no span id) cannot be recorded.
        assert record_span([].append, TraceContext(trace_id="t1"), "x", 0.1) is None

    def test_record_shape(self):
        sink = []
        context = TraceContext(trace_id="t1").child(retry=1).child()
        record_span(sink.append, context, "queue_wait", 0.0021, shard=2)
        assert sink[0]["duration_ms"] == 2.1
        assert sink[0]["parent_span_id"] == context.parent_span_id
        assert sink[0]["retry"] == 1
        assert sink[0]["shard"] == 2

    def test_ledger_sink_uses_append(self, tmp_path):
        ledger = RunLedger(tmp_path, strict=True)
        context = TraceContext(trace_id="t1").child()
        record_span(ledger, context, "kernel", 0.5)
        (entry,) = list(ledger.entries(kind=KIND_SPAN))
        assert entry["trace_id"] == "t1"
        assert entry["duration_ms"] == 500.0


class TestStamping:
    def test_ledger_entries_inherit_active_trace(self, tmp_path):
        ledger = RunLedger(tmp_path, strict=True)
        with trace_scope(TraceContext(trace_id="t9").child()):
            ledger.append({"kind": "job", "key": "k"})
        (entry,) = list(ledger.entries())
        assert entry["trace_id"] == "t9"
        assert entry["span_id"]

    def test_ledger_explicit_trace_id_is_not_overwritten(self, tmp_path):
        ledger = RunLedger(tmp_path, strict=True)
        with trace_scope(TraceContext(trace_id="ambient")):
            ledger.append({"kind": "job", "key": "k", "trace_id": "explicit"})
        (entry,) = list(ledger.entries())
        assert entry["trace_id"] == "explicit"

    def test_struct_log_events_inherit_active_trace(self):
        stream = io.StringIO()
        root = configure_structured_logging(level=logging.DEBUG, stream=stream)
        try:
            logger = get_struct_logger("test.tracing")
            with trace_scope(TraceContext(trace_id="t9").child()):
                logger.info("inside")
            logger.info("outside")
        finally:
            for handler in list(root.handlers):
                if getattr(handler, "_repro_struct_handler", False):
                    root.removeHandler(handler)
        inside, outside = [json.loads(line)
                           for line in stream.getvalue().splitlines()]
        assert inside["trace_id"] == "t9"
        assert "span_id" in inside
        assert "trace_id" not in outside

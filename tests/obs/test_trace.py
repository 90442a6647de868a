"""Tests for span nesting, self-time accounting and JSONL export."""

from __future__ import annotations

import json

import pytest

from repro.obs import trace as trace_mod
from repro.obs.trace import (
    TRACE_SCHEMA,
    TraceCollector,
    open_span,
    read_trace,
    span,
    write_trace,
)


class TestSpans:
    def test_nesting_links_parent_and_depth(self):
        collector = TraceCollector()
        with collector.span("outer"):
            with collector.span("inner", k=1):
                pass
        inner, outer = collector.events  # completion order
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert outer["parent"] == 0 and outer["depth"] == 0
        assert inner["parent"] == outer["id"] and inner["depth"] == 1
        assert inner["attrs"] == {"k": 1}
        assert inner["pid"] == outer["pid"] == collector.pid

    def test_self_time_excludes_children(self):
        collector = TraceCollector()
        with collector.span("outer"):
            with collector.span("inner"):
                sum(range(20000))
        inner, outer = collector.events
        assert outer["dur_s"] >= inner["dur_s"]
        assert outer["self_s"] == pytest.approx(
            outer["dur_s"] - inner["dur_s"], abs=1e-9
        )
        assert inner["self_s"] == pytest.approx(inner["dur_s"], abs=1e-12)

    def test_set_attaches_attributes_mid_flight(self):
        collector = TraceCollector()
        with collector.span("phase", a=1) as sp:
            sp.set(b=2)
        (event,) = collector.events
        assert event["attrs"] == {"a": 1, "b": 2}

    def test_exception_is_recorded_and_propagates(self):
        collector = TraceCollector()
        with pytest.raises(ValueError):
            with collector.span("doomed"):
                raise ValueError("boom")
        (event,) = collector.events
        assert event["error"] == "ValueError"
        assert not collector._stack, "stack must unwind on error"

    def test_ids_are_unique_and_monotonic(self):
        collector = TraceCollector()
        for _ in range(3):
            with collector.span("x"):
                pass
        ids = [e["id"] for e in collector.events]
        assert ids == sorted(set(ids))

    def test_drain_detaches_events(self):
        collector = TraceCollector()
        with collector.span("x"):
            pass
        drained = collector.drain()
        assert len(drained) == 1
        assert collector.events == []


class TestOpenSpans:
    def test_open_span_keeps_off_the_nesting_stack(self, monkeypatch):
        collector = TraceCollector()
        monkeypatch.setattr(trace_mod, "_active", collector)
        with span("outer"):
            first = open_span("request", op="cost")
            second = open_span("request", op="ping")
            with span("inner"):
                pass
        second.end(error="Overloaded")
        first.end()
        inner, outer, late, early = collector.events
        assert inner["parent"] == outer["id"] and inner["depth"] == 1
        assert outer["self_s"] == pytest.approx(
            outer["dur_s"] - inner["dur_s"], abs=1e-9
        ), "an open span is nobody's child"
        for event in (late, early):
            assert event["parent"] == 0 and event["depth"] == 0
            assert event["self_s"] == event["dur_s"]
        assert early["attrs"] == {"op": "cost"} and "error" not in early
        assert late["error"] == "Overloaded"
        assert early["dur_s"] >= late["dur_s"]
        assert not collector._stack

    def test_open_span_is_the_shared_null_when_off(self):
        assert trace_mod.active() is None
        opened = open_span("request", op="cost")
        assert opened is span("other")
        assert opened.set(op="ping") is opened
        opened.end(error="Overloaded")


class TestDisabledNoOp:
    def test_free_span_is_shared_null_when_off(self):
        assert trace_mod.active() is None
        first = span("anything", k=1)
        second = span("other")
        assert first is second, "disabled spans must be one shared object"
        with first as sp:
            assert sp.set(x=1) is sp

    def test_span_name_is_positional_only(self):
        # Attribute keywords may shadow the span's own name.
        sp = span("experiment", name="fig2")
        with sp:
            pass


class TestJsonl:
    def test_round_trip(self, tmp_path):
        collector = TraceCollector()
        with collector.span("outer", scope="LA"):
            with collector.span("inner"):
                pass
        metrics = {"cache.hits": {"kind": "counter", "value": 3}}
        path = write_trace(tmp_path / "t" / "trace.jsonl", collector,
                           metrics=metrics)
        data = read_trace(path)
        assert data.schema == TRACE_SCHEMA
        assert data.meta["spans"] == 2
        assert data.spans == tuple(collector.events)
        assert data.metrics == metrics

    def test_metrics_record_is_optional(self, tmp_path):
        collector = TraceCollector()
        path = write_trace(tmp_path / "trace.jsonl", collector)
        data = read_trace(path)
        assert data.spans == ()
        assert data.metrics == {}

    def test_foreign_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "schema": "other-trace/9"}) + "\n"
        )
        with pytest.raises(ValueError, match="schema"):
            read_trace(path)

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "span", "name": "x"}) + "\n")
        with pytest.raises(ValueError, match="missing meta"):
            read_trace(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_trace(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "schema": TRACE_SCHEMA}) + "\n"
            + json.dumps({"type": "mystery"}) + "\n"
        )
        with pytest.raises(ValueError, match="unknown record type"):
            read_trace(path)

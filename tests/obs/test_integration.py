"""End-to-end observability: engine spans, cache counters, pipeline.

The load-bearing guarantee is at the top: tracing must never change
what the repo computes.  Reports produced under ``obs.observed()`` are
byte-identical to untraced ones.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing

import pytest

import repro.obs as obs
from repro.arch.presets import edge
from repro.core import cache as cache_mod
from repro.core.cache import PersistentCache
from repro.core.configs import flex_accel, flex_accel_m
from repro.core.dse import Objective, SearchSpace, enumerate_families, search
from repro.core.engine import (
    SearchRequest,
    clear_evaluation_cache,
    evaluate_cost,
    run_searches,
)
from repro.core.scaleout import (
    ScaleoutSystem,
    enumerate_partitions,
    search_scaleout,
)
from repro.experiments.pipeline import run_pipeline, write_manifest
from repro.experiments.runner import run_experiment
from repro.models.configs import model_config
from repro.obs.summary import (
    cache_invariant,
    format_summary,
    rollup_spans,
    trace_totals,
)
from repro.obs.trace import TRACE_SCHEMA, read_trace
from repro.ops.attention import Scope


class TestReportsUnchanged:
    def test_traced_report_is_byte_identical(self, tmp_path):
        baseline = run_experiment("fig2")
        with obs.observed(tmp_path / "trace.jsonl"):
            traced = run_experiment("fig2")
        assert traced == baseline
        data = read_trace(tmp_path / "trace.jsonl")
        assert any(s["name"] == "experiment" for s in data.spans)


class TestEngineInstrumentation:
    def test_search_emits_phase_spans_and_counters(self, bert_512):
        clear_evaluation_cache()
        with obs.observed() as session:
            # A space above the one-call limit, so the search plans.
            search(bert_512, edge(), objective=Objective.RUNTIME,
                   space=SearchSpace(exhaustive_staging=True),
                   retain_points=False)
            names = {e["name"] for e in session.collector.events}
            snap = session.registry.snapshot()
        # A best-only search takes the candidate path.
        assert {"search", "candidate-search", "candidate-score"} <= names
        assert snap["engine.searches"]["value"] == 1
        assert snap["engine.enumerated"]["value"] > 0
        assert snap["engine.candidates.generated"]["value"] > 0
        stats_sum = (
            snap["engine.lru_hits"]["value"]
            + snap.get("engine.pruned", {"value": 0})["value"]
            + snap["engine.evaluated"]["value"]
            + snap["engine.disk_hits"]["value"]
        )
        assert stats_sum == snap["engine.enumerated"]["value"]

    def test_one_call_search_emits_phase_spans_and_counters(self, bert_512):
        clear_evaluation_cache()
        with obs.observed() as session:
            # The default space is at most the one-call limit.
            result = search(bert_512, edge(), objective=Objective.RUNTIME,
                            retain_points=False)
            events = list(session.collector.events)
            snap = session.registry.snapshot()
        names = {e["name"] for e in events}
        assert {"search", "candidate-search", "candidate-score"} <= names
        assert snap["engine.searches"]["value"] == 1
        assert snap["engine.candidates.generated"]["value"] == (
            snap["engine.enumerated"]["value"]
        )
        assert (
            snap["engine.lru_hits"]["value"]
            + snap.get("engine.pruned", {"value": 0})["value"]
            + snap["engine.evaluated"]["value"]
            + snap["engine.disk_hits"]["value"]
        ) == snap["engine.enumerated"]["value"]
        (score_event,) = [e for e in events
                          if e["name"] == "candidate-score"]
        attrs = score_event["attrs"]
        assert attrs["candidates"] == result.stats.enumerated
        assert attrs["families"] > 0
        assert attrs["families_pruned"] == attrs["candidates_skipped"] == 0
        assert attrs["scalar"] == 0

    def test_breakdown_sources(self, bert_512):
        """``engine.breakdowns[grid|scalar]`` says where each winner's
        and point's cost came from; no breakdown is reused from an
        earlier search."""
        def sources(snap):
            return {
                src: snap.get(f"engine.breakdowns[{src}]",
                              {"value": 0})["value"]
                for src in ("grid", "scalar")
            }

        clear_evaluation_cache()
        with obs.observed() as session:
            # A small space: one grid call, the winner from its lane.
            first = search(bert_512, edge(), objective=Objective.RUNTIME,
                           retain_points=False)
            missed = session.registry.snapshot()
            # Another objective misses the search memo; its winner is
            # the same dataflow, again built from its lane.
            again = search(bert_512, edge(), objective=Objective.ENERGY,
                           retain_points=False)
            repeated = session.registry.snapshot()
            # Every point, from the space's grid call.
            every = search(bert_512, edge(), objective=Objective.RUNTIME,
                           retain_points=True)
            snap = session.registry.snapshot()
            # A lone fixed-dataflow miss takes the scalar model.
            evaluate_cost(bert_512, Scope.LA, edge(), first.best.dataflow)
            lone = session.registry.snapshot()
        assert again.best.dataflow == first.best.dataflow
        assert sources(missed) == {"grid": 1, "scalar": 0}
        assert sources(repeated) == {"grid": 2, "scalar": 0}
        n = len(every.points)
        assert sources(snap) == {"grid": 2 + n, "scalar": 0}
        assert sources(lone) == {"grid": 2 + n, "scalar": 1}
        assert {name for name in lone
                if name.startswith("engine.breakdowns")} == {
            "engine.breakdowns[grid]", "engine.breakdowns[scalar]"}

    def test_planned_search_records_candidate_plan(self, bert_512):
        clear_evaluation_cache()
        space = SearchSpace(exhaustive_staging=True)
        with obs.observed() as session:
            search(bert_512, edge(), objective=Objective.RUNTIME,
                   space=space, retain_points=False)
            # The default space is scored in one call, never planned.
            search(bert_512, edge(), objective=Objective.ENERGY,
                   retain_points=False)
            events = list(session.collector.events)
        (plan,) = [e for e in events if e["name"] == "candidate-plan"]
        parent = next(e for e in events if e["id"] == plan["parent"])
        assert parent["name"] == "candidate-search"
        assert plan["attrs"] == {
            "families": len(list(enumerate_families(bert_512, space)))
        }

    def test_every_point_path_skips_candidate_spans(self, bert_512):
        clear_evaluation_cache()
        with obs.observed() as session:
            search(bert_512, edge(), objective=Objective.RUNTIME,
                   retain_points=True)
            names = {e["name"] for e in session.collector.events}
            snap = session.registry.snapshot()
        assert "search" in names
        assert not {"candidate-search", "candidate-score"} & names
        assert snap["engine.evaluated"]["value"] == (
            snap["engine.enumerated"]["value"]
        )

    def test_search_span_carries_candidate_count(self, bert_512):
        clear_evaluation_cache()
        with obs.observed() as session:
            search(bert_512, edge(), objective=Objective.RUNTIME,
                   space=SearchSpace(exhaustive_staging=True),
                   retain_points=False)
            events = list(session.collector.events)
        (score_event,) = [e for e in events
                          if e["name"] == "candidate-score"]
        assert score_event["attrs"]["candidates"] > 0
        assert score_event["attrs"]["families"] > 0
        assert score_event["attrs"]["families_pruned"] >= 0

    def test_search_batch_scores_small_misses_in_one_grid_call(self):
        configs = [model_config(m, seq=512) for m in ("bert", "xlm", "t5")]
        requests = [SearchRequest(cfg, edge(), space=policy.space)
                    for cfg in configs
                    for policy in (flex_accel_m(), flex_accel())]
        clear_evaluation_cache()
        with obs.observed() as session:
            results = run_searches(requests)
            events = list(session.collector.events)
            snap = session.registry.snapshot()
        (batch,) = [e for e in events if e["name"] == "search-batch"]
        n = len(requests)
        assert batch["attrs"] == {"requests": n, "memo_hits": 0,
                                  "segments": n, "grid_calls": 1}
        assert snap["batch.grids"]["value"] == 1
        assert snap["batch.grid_segments"]["max"] == n
        # One ledger per search, each booking its own space.
        scores = [e for e in events if e["name"] == "candidate-score"]
        assert [e["attrs"]["candidates"] for e in scores] == [
            r.stats.enumerated for r in results]
        assert all(e["attrs"]["families_pruned"] == 0 for e in scores)
        searches = [e for e in events if e["name"] == "search"]
        assert len(searches) == n
        assert all(e["parent"] == batch["id"] for e in searches)


class TestScaleoutInstrumentation:
    def test_outer_grid_and_inner_searches_nest_under_scaleout(
        self, bert_512
    ):
        system = ScaleoutSystem(chip=edge())
        clear_evaluation_cache()
        with obs.observed() as session:
            result = search_scaleout(bert_512, system, 8)
            search_scaleout(bert_512, system, 8)  # a memo hit
            events = list(session.collector.events)
        first, hit = sorted(
            (e for e in events if e["name"] == "scaleout"),
            key=lambda e: e["start_s"],
        )
        partitions = len(enumerate_partitions(bert_512, 8))
        assert first["attrs"] == {"chips": 8, "partitions": partitions}
        assert hit["attrs"] == first["attrs"]
        (outer,) = [e for e in events if e["name"] == "scaleout-outer"]
        assert outer["parent"] == first["id"]
        inner = [e for e in events
                 if e["name"] == "search" and e["parent"] == first["id"]]
        # Inner searches sit beside the outer grid, never inside it.
        assert len(inner) == result.stats.inner_searches >= 1
        assert not [e for e in events if e["parent"] == outer["id"]]
        # The memo hit records its scaleout span and nothing under it.
        assert not [e for e in events if e["parent"] == hit["id"]]


class TestCacheInstrumentation:
    def test_counters_match_stats_under_corruption(self, tmp_path):
        """The summary invariant holds through injected corruption."""
        with obs.observed() as session:
            cache = PersistentCache(tmp_path / "c")
            cache.put(("ok",), 1)
            assert cache.get(("ok",)) == 1
            assert cache.get(("absent",)) is None
            cache.put(("bad",), 2)
            with closing(sqlite3.connect(cache.path)) as conn:
                conn.execute("UPDATE entries SET value = ? WHERE key = ?",
                             (b"garbage", cache_mod._digest(("bad",))))
                conn.commit()
            assert cache.get(("bad",)) is None
            snap = session.registry.snapshot()
        assert snap["cache.lookups"]["value"] == cache.stats.lookups == 3
        assert snap["cache.hits"]["value"] == cache.stats.hits == 1
        assert snap["cache.misses"]["value"] == cache.stats.misses == 2
        assert snap["cache.corrupt"]["value"] == cache.stats.corrupt == 1
        assert snap["cache.writes"]["value"] == cache.stats.writes == 2
        assert cache_invariant(snap) == (3, 1, 2, True)

    def test_latency_histograms_populated(self, tmp_path):
        with obs.observed() as session:
            cache = PersistentCache(tmp_path / "c")
            cache.put(("k",), 1)
            cache.get(("k",))
            snap = session.registry.snapshot()
        assert snap["cache.get_s"]["count"] == 1
        assert snap["cache.put_s"]["count"] == 1


class TestFlushBooking:
    def test_an_experiments_puts_land_in_one_flush(self, tmp_path):
        clear_evaluation_cache()
        with obs.observed() as session:
            result = run_pipeline(names=("iso-area",), workers=1,
                                  cache_dir=str(tmp_path / "c"))
            snap = session.registry.snapshot()
        (run,) = result.runs
        assert run.cache["writes"] == snap["cache.put_s"]["count"] > 1
        assert run.cache["flushes"] == 1
        assert snap["cache.flushes"]["value"] == 1
        assert snap["cache.flush_s"]["count"] == 1
        assert snap["cache.writes"]["value"] == run.cache["writes"]
        assert cache_invariant(snap)[3]


class TestPipelineShipping:
    def test_workers_ship_events_and_metrics_home(self):
        import os

        with obs.observed() as session:
            result = run_pipeline(names=("fig2",), workers=2, cache_dir="")
            events = list(session.collector.events)
        assert result.runs[0].ok
        names = {e["name"] for e in events}
        assert "experiment" in names, "worker spans must reach the parent"
        pids = {e["pid"] for e in events if e["name"] == "experiment"}
        assert pids and os.getpid() not in pids, (
            "pool workers record in their own process and ship events home"
        )

    def test_manifest_embeds_trace_totals(self, tmp_path):
        with obs.observed() as session:
            result = run_pipeline(names=("table1",), workers=1,
                                  cache_dir="")
            totals = trace_totals(
                tuple(session.collector.events),
                session.registry.snapshot(),
            )
        path = write_manifest(result, tmp_path / "out", trace=totals)
        manifest = json.loads(path.read_text())
        assert manifest["trace"]["schema"] == TRACE_SCHEMA
        span_names = {s["name"] for s in manifest["trace"]["spans"]}
        assert "experiment" in span_names

    def test_untraced_manifest_has_no_trace_key(self, tmp_path):
        result = run_pipeline(names=("table1",), workers=1, cache_dir="")
        path = write_manifest(result, tmp_path / "out")
        manifest = json.loads(path.read_text())
        assert "trace" not in manifest


class TestSummary:
    def _trace(self, tmp_path, metrics):
        with obs.observed(tmp_path / "t.jsonl") as session:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            session.registry.merge(metrics)
        return read_trace(tmp_path / "t.jsonl")

    def test_rollup_orders_by_self_time(self):
        spans = (
            {"name": "cold", "dur_s": 0.1, "self_s": 0.1},
            {"name": "hot", "dur_s": 5.0, "self_s": 4.0},
            {"name": "hot", "dur_s": 1.0, "self_s": 1.0},
        )
        rollup = rollup_spans(spans)
        assert [e["name"] for e in rollup] == ["hot", "cold"]
        assert rollup[0]["count"] == 2
        assert rollup[0]["self_s"] == pytest.approx(5.0)

    def test_summary_reports_invariant_ok(self, tmp_path):
        data = self._trace(tmp_path, {
            "cache.lookups": {"kind": "counter", "value": 4},
            "cache.hits": {"kind": "counter", "value": 3},
            "cache.misses": {"kind": "counter", "value": 1},
        })
        text = format_summary(data)
        assert "3 + 1 == 4 [OK]" in text
        assert "outer" in text and "inner" in text

    def test_summary_flags_violated_invariant(self, tmp_path):
        data = self._trace(tmp_path, {
            "cache.lookups": {"kind": "counter", "value": 4},
            "cache.hits": {"kind": "counter", "value": 3},
            "cache.misses": {"kind": "counter", "value": 0},
        })
        assert "[VIOLATED]" in format_summary(data)

    def test_summary_without_cache_metrics_omits_invariant(self, tmp_path):
        data = self._trace(tmp_path, {})
        assert "cache invariant" not in format_summary(data)

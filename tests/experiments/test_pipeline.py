"""Tests for the parallel experiment pipeline and its manifest."""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.experiments import pipeline as pipeline_mod
from repro.experiments.pipeline import (
    MANIFEST_SCHEMA,
    run_pipeline,
    write_manifest,
)
from repro.experiments.runner import run_experiment

SUBSET = ("table1", "table2", "fig2")


class TestRunPipeline:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiments"):
            run_pipeline(names=["fig99"], workers=1)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="no experiments selected"):
            run_pipeline(names=[], workers=1)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_pipeline(names=["table1"], workers=0)

    def test_serial_reports_match_registry(self, tmp_path):
        result = run_pipeline(names=SUBSET, workers=1,
                              cache_dir=str(tmp_path / "cache"))
        assert tuple(r.name for r in result.runs) == SUBSET
        for run in result.runs:
            assert run.ok
            assert run.report == run_experiment(run.name)
            assert run.wall_time_s >= 0
            assert "searches" in run.search

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        serial = run_pipeline(names=SUBSET, workers=1,
                              cache_dir=str(tmp_path / "cache"))
        parallel = run_pipeline(names=SUBSET, workers=2,
                                cache_dir=str(tmp_path / "cache"))
        assert [r.report for r in serial.runs] == [
            r.report for r in parallel.runs
        ]

    def test_progress_streams_in_completion_order(self, tmp_path):
        seen = []
        result = run_pipeline(
            names=SUBSET, workers=1, cache_dir=str(tmp_path / "cache"),
            progress=lambda run, done, total: seen.append(
                (run.name, done, total)
            ),
        )
        assert [s[0] for s in seen] == list(SUBSET)
        assert [s[1] for s in seen] == [1, 2, 3]
        assert all(s[2] == 3 for s in seen)
        assert not result.failures

    def test_failing_experiment_is_isolated(self, monkeypatch):
        def boom(name, **kwargs):
            if name == "table2":
                raise RuntimeError("synthetic failure")
            return run_experiment(name, **kwargs)

        monkeypatch.setattr(pipeline_mod, "run_experiment", boom)
        result = run_pipeline(names=("table1", "table2"), workers=1,
                              cache_dir="")
        ok, failed = result.runs
        assert ok.ok
        assert failed.status == "error"
        assert "synthetic failure" in failed.report
        assert result.failures == (failed,)

    def test_dead_worker_does_not_abort_pipeline(self, monkeypatch):
        """A worker that dies mid-job must not take the run down.

        Regression: ``os._exit`` in a pool worker raises
        BrokenProcessPool out of *every* pending future, which used to
        abort ``run_pipeline`` wholesale.  Now the lost job is retried
        in an isolation pool (where it dies again, definitively), gets
        a synthesized ``error`` run, and the survivors complete.
        """
        def killer(name, **kwargs):
            if name == "table2":
                os._exit(13)
            return run_experiment(name, **kwargs)

        monkeypatch.setattr(pipeline_mod, "run_experiment", killer)
        result = run_pipeline(names=SUBSET, workers=2, cache_dir="")
        assert tuple(r.name for r in result.runs) == SUBSET
        by_name = {r.name: r for r in result.runs}
        assert by_name["table2"].status == "error"
        assert "BrokenProcessPool" in by_name["table2"].report
        assert by_name["table1"].ok
        assert by_name["fig2"].ok
        assert result.failures == (by_name["table2"],)

    def test_pipeline_preserves_caller_search_totals(self):
        """Regression: run_pipeline used to zero the caller's totals.

        The serial path shares this process's accumulator; it must
        save and restore it instead of resetting it in place.
        """
        from repro.core import engine

        engine.reset_search_totals()
        engine._totals["searches"] = 7
        engine._totals["evaluated"] = 11
        before = engine.search_totals()
        try:
            run_pipeline(names=("table1",), workers=1, cache_dir="")
            assert engine.search_totals() == before
        finally:
            engine.reset_search_totals()


class TestManifest:
    def test_manifest_layout_and_hashes(self, tmp_path):
        result = run_pipeline(names=("table1",), workers=1,
                              cache_dir=str(tmp_path / "cache"))
        manifest_path = write_manifest(result, tmp_path / "out")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["workers"] == 1
        assert len(manifest["cost_model_fingerprint"]) == 64
        (entry,) = manifest["experiments"]
        assert entry["name"] == "table1"
        assert entry["status"] == "ok"
        report = (tmp_path / "out" / entry["report_path"]).read_text()
        assert report == result.runs[0].report + "\n"
        assert entry["report_sha256"] == result.runs[0].report_sha256()
        agg = manifest["aggregate"]
        assert agg["experiments"] == 1 and agg["failures"] == 0
        assert "cache" in agg and "search" in agg

    def test_two_runs_share_cache_and_agree(self, tmp_path):
        from repro.core.engine import clear_evaluation_cache

        cache = str(tmp_path / "cache")
        first = run_pipeline(names=("fig11-edge",), workers=1,
                             cache_dir=cache)
        # Pool workers fork from this process: drop its in-memory LRU
        # so every hit the fresh workers see must come from disk.
        clear_evaluation_cache()
        second = run_pipeline(names=("fig11-edge",), workers=2,
                              cache_dir=cache)
        assert first.runs[0].report == second.runs[0].report
        # The warm run's workers are fresh processes: every hit they
        # get comes from the persistent cache written by the first run.
        assert second.aggregate_cache().get("hits", 0) > 0
        assert second.aggregate_search()["disk_hits"] > 0


class TestStoreLifetime:
    def test_run_pipeline_closes_its_store(self, tmp_path):
        from repro.core.cache import open_cache

        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("no /proc/self/fd to list open descriptors")
        root = tmp_path / "cache"
        result = run_pipeline(names=("ext-quant",), workers=1,
                              cache_dir=str(root))
        assert result.runs[0].cache["writes"] > 0
        store = open_cache(str(root))
        assert store._conn is None and not store._puts
        shutil.rmtree(root)
        held = []
        for fd in fds.iterdir():
            try:
                held.append(os.readlink(fd))
            except OSError:
                continue  # closed while listing (the listing's own fd)
        assert not [path for path in held if str(root) in path], held

    def test_run_pipeline_forgets_its_store(self, tmp_path):
        """A process that runs the pipeline on many directories keeps no
        store for any of them."""
        from repro.core import cache as cache_mod

        before = len(cache_mod._instances)
        for i in range(5):
            root = tmp_path / f"cache{i}"
            run_pipeline(names=("table1",), workers=1, cache_dir=str(root))
            shutil.rmtree(root, ignore_errors=True)
        assert len(cache_mod._instances) == before

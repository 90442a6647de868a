"""Tests for the persistent cross-run DSE answer cache."""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import shutil
import sqlite3
import sys
import threading
from contextlib import closing, suppress

import pytest

from repro.arch.presets import edge
from repro.core import cache as cache_mod
from repro.core.cache import (
    CacheStats,
    PersistentCache,
    cost_model_fingerprint,
    default_cache_dir,
    get_default_cache,
    open_cache,
    resolve_cache_dir,
    set_default_cache_dir,
)
from repro.core.dse import Objective, SearchSpace, search
from repro.core.engine import (
    accelerator_fingerprint,
    clear_evaluation_cache,
    evaluate_cost,
)
from repro.core.dataflow import Granularity, flat_r
from repro.core.perf import PerfOptions, cost_scope
from repro.core.scaleout import ScaleoutSystem, search_scaleout
from repro.ops.attention import AttentionConfig, Scope


@pytest.fixture
def cache(tmp_path):
    return PersistentCache(tmp_path / "cache")


def _set_payload(cache: PersistentCache, key, payload: bytes) -> None:
    """Overwrite one row's pickled payload from outside the store."""
    with closing(sqlite3.connect(cache.path)) as conn:
        conn.execute("UPDATE entries SET value = ? WHERE key = ?",
                     (payload, cache_mod._digest(key)))
        conn.commit()


def _payload(cache: PersistentCache, key) -> bytes:
    with closing(sqlite3.connect(cache.path)) as conn:
        (value,) = conn.execute("SELECT value FROM entries WHERE key = ?",
                                (cache_mod._digest(key),)).fetchone()
    return value


class TestRoundTrip:
    def test_get_returns_stored_value(self, cache):
        key = ("workload", 1, 2.5)
        cache.put(key, {"cycles": 123.0})
        assert cache.get(key) == {"cycles": 123.0}
        assert cache.stats.hits == 1 and cache.stats.writes == 1

    def test_miss_counts(self, cache):
        assert cache.get(("absent",)) is None
        assert cache.stats.misses == 1

    def test_scope_cost_round_trips_exactly(self, cache, bert_512):
        cost = cost_scope(bert_512, Scope.LA, edge(), flat_r(64))
        cache.put(("k",), cost)
        restored = cache.get(("k",))
        assert restored == cost
        assert restored.total_cycles == cost.total_cycles

    def test_overwrite_is_last_writer_wins(self, cache):
        cache.put(("k",), 1)
        cache.put(("k",), 2)
        assert cache.get(("k",)) == 2
        assert cache.entry_count() == 1

    def test_one_sqlite_file_per_generation(self, cache):
        for i in range(20):
            cache.put(("k", i), i)
        names = {p.name for p in cache.root.iterdir()}
        assert cache.path.name in names
        assert names <= {cache.path.name + suffix
                         for suffix in ("", "-wal", "-shm")}


class TestCorruption:
    """Corrupt rows and files are skipped — counted, not fatal.

    Every corruption a lookup meets is a miss *and* a corrupt, so
    ``hits + misses == lookups`` survives it.
    """

    def test_truncated_entry_is_a_miss(self, cache):
        key = ("k", 1)
        cache.put(key, "value")
        payload = _payload(cache, key)
        _set_payload(cache, key, payload[: len(payload) // 2])
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1, "a corrupt entry must count as a miss"
        assert cache.entry_count() == 0, "corrupt row should be discarded"

    def test_garbage_bytes_are_a_miss(self, cache):
        key = ("k", 2)
        cache.put(key, "value")
        _set_payload(cache, key, b"not a pickle at all")
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1

    def _break_file(self, cache, damage) -> None:
        for i in range(50):
            cache.put(("k", i), "x" * 500)
        cache.close()  # checkpoints the WAL into the main file
        cache.path.write_bytes(damage(cache.path.read_bytes()))

    def test_wrong_header_is_a_miss(self, cache):
        """A file that is not a database is dropped and rebuilt."""
        self._break_file(cache, lambda data: b"garbage " * (len(data) // 8))
        self._assert_rebuilt(cache)

    def test_truncated_file_is_a_miss(self, cache):
        self._break_file(cache, lambda data: data[: len(data) // 2])
        self._assert_rebuilt(cache)

    @staticmethod
    def _assert_rebuilt(cache) -> None:
        assert cache.get(("k", 49)) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        cache.put(("k", 49), "fresh")
        assert cache.get(("k", 49)) == "fresh"
        assert cache.entry_count() == 1, "the store was rebuilt empty"

    def test_cache_recovers_after_corruption(self, cache):
        key = ("k", 4)
        cache.put(key, "old")
        _set_payload(cache, key, b"\x00")
        assert cache.get(key) is None
        cache.put(key, "new")
        assert cache.get(key) == "new"

    def test_accounting_invariant_survives_corruption(self, cache):
        """hits + misses == lookups through hits, misses and corruption."""
        cache.put(("ok",), 1)
        assert cache.get(("ok",)) == 1  # hit
        assert cache.get(("absent",)) is None  # plain miss
        cache.put(("bad",), 2)
        _set_payload(cache, ("bad",), b"garbage")
        assert cache.get(("bad",)) is None  # corrupt miss
        stats = cache.stats
        assert stats.lookups == 3
        assert stats.hits + stats.misses == stats.lookups
        assert stats.hits == 1 and stats.misses == 2 and stats.corrupt == 1


class TestUnwritableStore:
    """A store that cannot be written degrades to a no-op."""

    def test_locked_store_is_a_no_op(self, cache, monkeypatch):
        cache.put(("k",), 1)
        cache.close()
        monkeypatch.setattr(cache_mod, "_BUSY_TIMEOUT_S", 0.01)
        with closing(sqlite3.connect(cache.path)) as holder:
            holder.execute("PRAGMA journal_mode=DELETE")
            holder.execute("BEGIN EXCLUSIVE")
            assert cache.get(("k",)) is None
            cache.put(("k2",), 2)
            holder.rollback()
        stats = cache.stats
        assert stats.writes == 1 and stats.corrupt == 0
        assert stats.hits + stats.misses == stats.lookups == 1
        assert cache.get(("k",)) == 1, "the store works once unlocked"

    def test_read_only_cache_dir(self, tmp_path):
        root = tmp_path / "ro"
        writer = PersistentCache(root)
        writer.put(("k",), 1)
        writer.close()
        root.chmod(0o555)
        writer.path.chmod(0o444)
        try:
            if os.access(root, os.W_OK):
                pytest.skip("file permissions do not bind this user")
            reader = PersistentCache(root)
            assert reader.get(("k",)) in (None, 1)
            reader.put(("k2",), 2)
            assert reader.get(("k2",)) is None
            stats = reader.stats
            assert stats.writes == 0 and stats.corrupt == 0
            assert stats.hits + stats.misses == stats.lookups == 2
        finally:
            root.chmod(0o755)
            writer.path.chmod(0o644)


    def test_query_only_connection(self, tmp_path):
        """The read-only case for any user, root included: the store's
        own connection refuses writes, so a flush meets
        ``SQLITE_READONLY`` and drops its rows."""
        writer = PersistentCache(tmp_path)
        writer.put(("k",), 1)
        writer.close()
        reader = PersistentCache(tmp_path)
        conn = reader._connection()
        conn.execute("PRAGMA query_only=ON")
        with pytest.raises(sqlite3.OperationalError) as refused:
            conn.execute("DELETE FROM entries")
        assert refused.value.sqlite_errorname == "SQLITE_READONLY"
        assert reader.get(("k",)) == 1  # its touch cannot be written
        reader.put(("k2",), 2)
        assert reader.get(("k2",)) is None
        stats = reader.stats
        assert stats.writes == 0 and stats.flushes == 0
        assert stats.corrupt == 0
        assert stats.hits + stats.misses == stats.lookups == 2


class TestDeletedStore:
    """A store deleted under an open connection is reopened, not served
    from the unlinked file."""

    @pytest.mark.parametrize("target", ["directory", "file"])
    def test_deleted_store_misses_and_is_recreated(self, cache, target):
        cache.put(("k",), 1)
        assert cache.get(("k",)) == 1
        if target == "directory":
            shutil.rmtree(cache.root)
        else:
            for suffix in ("", "-wal", "-shm"):
                with suppress(FileNotFoundError):
                    os.unlink(f"{cache.path}{suffix}")
        # The lookup itself reopens the store, recreating it empty.
        assert cache.get(("k",)) is None
        assert cache.path.exists()
        cache.put(("k",), 2)
        assert PersistentCache(cache.root).get(("k",)) == 2
        stats = cache.stats
        assert stats.hits + stats.misses == stats.lookups == 2
        assert stats.hits == 1 and stats.writes == 2

    def test_search_after_deletion_recomputes(self, tmp_path, bert_512):
        root = tmp_path / "c"
        clear_evaluation_cache()
        with default_cache_dir(str(root)):
            first = search(bert_512, edge(), retain_points=False)
            shutil.rmtree(root)
            clear_evaluation_cache()
            again = search(bert_512, edge(), retain_points=False)
        assert again.best == first.best
        assert again.stats.disk_hits == 0
        assert again.stats == dataclasses.replace(
            first.stats, wall_time_s=again.stats.wall_time_s)
        assert root.is_dir()


class TestFingerprintInvalidation:
    def test_fingerprint_bump_invalidates_stale_hits(self, tmp_path):
        old = PersistentCache(tmp_path, fingerprint="a" * 64)
        old.put(("k",), "stale")
        bumped = PersistentCache(tmp_path, fingerprint="b" * 64)
        assert bumped.get(("k",)) is None, "stale generation must not hit"
        assert old.get(("k",)) == "stale", "generations are independent"
        bumped.put(("k",), "fresh")
        assert bumped.get(("k",)) == "fresh"
        # That first write swept the stale generation's file: the old
        # instance reopens instead of serving the unlinked copy.
        assert old.get(("k",)) is None

    def test_evict_sweeps_stale_generations(self, tmp_path):
        old = PersistentCache(tmp_path, fingerprint="a" * 64)
        for i in range(5):
            old.put(("k", i), i)
        old.close()
        bumped = PersistentCache(tmp_path, fingerprint="b" * 64)
        bumped.put(("k",), "fresh")
        assert bumped.evict() == 0, "stale files go; live entries stay"
        assert not any(p.name.startswith("a" * 16) for p in
                       tmp_path.iterdir())
        assert bumped.get(("k",)) == "fresh"
        reopened = PersistentCache(tmp_path, fingerprint="a" * 64)
        assert reopened.get(("k", 0)) is None

    def test_first_eviction_sweeps_file_per_entry_tree(self, tmp_path):
        """The version-1 layout, ``<fp16>/??/*.pkl``, is swept on open."""
        fingerprint = cost_model_fingerprint()
        for generation in (fingerprint[:16], "d" * 16):
            for shard in ("0a", "ff"):
                entries = tmp_path / generation / shard
                entries.mkdir(parents=True)
                for i in range(3):
                    (entries / f"{i:062x}.pkl").write_bytes(b"v1")
            (tmp_path / generation / "0a" / "stale.tmp").write_bytes(b"")
        store = PersistentCache(tmp_path)
        store.put(("k",), 1)  # a process's first write evicts
        assert not list(tmp_path.glob("**/*.pkl"))
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == []
        assert store.get(("k",)) == 1

    def test_schema_version_feeds_fingerprint(self, monkeypatch):
        before = cost_model_fingerprint()
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", 999)
        assert cost_model_fingerprint() != before


class TestEviction:
    def test_max_entries_enforced_lru(self, tmp_path):
        cache = PersistentCache(tmp_path, max_entries=3)
        for i in range(5):
            cache.put(("k", i), i)
        # Refresh entry 0 so it becomes the most recently used.
        assert cache.get(("k", 0)) == 0
        assert cache.evict() == 2
        assert cache.entry_count() == 3
        assert cache.get(("k", 0)) == 0, "recently used entry survives"
        assert cache.get(("k", 1)) is None
        assert cache.get(("k", 4)) == 4

    def test_put_triggers_periodic_eviction(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "_EVICT_EVERY", 4)
        cache = PersistentCache(tmp_path, max_entries=2)
        for i in range(4):
            cache.put(("k", i), i)
        assert cache.entry_count() == 4, "only the first write evicted"
        cache.put(("k", 4), 4)  # the fifth write evicts again
        assert cache.entry_count() == 2
        assert cache.get(("k", 4)) == 4, "the newest entry survives"

    def test_clear_empties_live_generation(self, cache):
        cache.put(("k",), 1)
        cache.clear()
        assert cache.entry_count() == 0
        assert cache.get(("k",)) is None


def _hammer(root: str, fingerprint: str, offset: int, count: int) -> None:
    cache = PersistentCache(root, fingerprint=fingerprint)
    for i in range(count):
        # Overlapping range: both writers fight over half the keys.
        cache.put(("shared", (offset + i) % (count * 3 // 2)), i)


class TestConcurrency:
    def test_two_processes_do_not_lose_or_mangle_entries(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        fingerprint = "c" * 64
        count = 60
        procs = [
            ctx.Process(
                target=_hammer,
                args=(str(tmp_path), fingerprint, off, count),
            )
            for off in (0, count // 2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        reader = PersistentCache(tmp_path, fingerprint=fingerprint)
        written = set(range(count * 3 // 2))
        values = {k: reader.get(("shared", k)) for k in written}
        assert all(v is not None for v in values.values()), (
            "concurrent writers lost entries"
        )
        assert reader.stats.corrupt == 0, "concurrent writers mangled entries"


def _use_inherited(cache: PersistentCache) -> None:
    # Runs in a fork-started child on the instance its parent opened.
    assert cache.get(("parent",)) == "p"
    cache.put(("child",), "c")
    assert cache.get(("child",)) == "c"
    assert cache.stats.corrupt == 0
    os._exit(0)


class TestForkedChild:
    def test_child_uses_store_its_parent_opened(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put(("parent",), "p")
        assert cache.get(("parent",)) == "p"
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_use_inherited, args=(cache,))
        child.start()
        # No connection crosses the fork: the parent closed its own
        # before forking and reopens it lazily.
        assert cache._conn is None
        child.join(timeout=60)
        assert child.exitcode == 0
        assert cache.get(("child",)) == "c"
        cache.put(("parent",), "p2")
        assert cache.get(("parent",)) == "p2"
        assert cache.stats.corrupt == 0


class TestThreadSafety:
    """One cache instance shared across threads — the serving daemon's
    shape: request handlers and the evaluator hit the same
    ``PersistentCache`` (and the same engine LRU) concurrently.
    """

    def test_readers_and_writers_keep_accounting_exact(self, tmp_path):
        cache = PersistentCache(tmp_path)
        keys = [("shared", i) for i in range(16)]
        for key in keys:
            cache.put(key, {"seed": key[1]})
        reader_threads, reader_rounds = 6, 150
        writer_threads, writer_rounds = 2, 100
        errors = []

        def read(rounds):
            try:
                for index in range(rounds):
                    value = cache.get(keys[index % len(keys)])
                    assert value is not None, "reader saw a torn entry"
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def write(rounds):
            try:
                for index in range(rounds):
                    cache.put(keys[index % len(keys)], {"seed": index})
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=read, args=(reader_rounds,))
            for _ in range(reader_threads)
        ] + [
            threading.Thread(target=write, args=(writer_rounds,))
            for _ in range(writer_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleavings
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        stats = cache.stats
        assert stats.corrupt == 0
        assert stats.misses == 0
        assert stats.lookups == stats.hits + stats.misses
        assert stats.lookups == reader_threads * reader_rounds
        assert stats.writes == (
            len(keys) + writer_threads * writer_rounds
        )
        assert cache.entry_count() == len(keys)

    def test_concurrent_engine_evaluations_agree_and_balance(
        self, tmp_path, bert_512
    ):
        """Racing threads through ``evaluate_cost`` on one --cache-dir:
        every thread gets the same answer and the cache accounting
        invariant survives the races (hits + misses == lookups)."""
        accel = edge()
        workers = 8
        results = [None] * workers
        errors = []

        def work(index):
            try:
                results[index] = evaluate_cost(
                    bert_512, Scope.LA, accel, flat_r(64)
                )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        with default_cache_dir(str(tmp_path)):
            clear_evaluation_cache()
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            pcache = get_default_cache()
            assert pcache is not None
            stats = pcache.stats
        assert not errors, errors
        assert all(r is not None for r in results)
        assert all(r == results[0] for r in results[1:])
        assert stats.corrupt == 0
        assert stats.lookups == stats.hits + stats.misses


class TestDefaultPlumbing:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setattr(cache_mod, "_default_dir", None)
        assert resolve_cache_dir() is None
        assert get_default_cache() is None

    def test_env_var_enables(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cache_mod, "_default_dir", None)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = get_default_cache()
        assert cache is not None
        assert cache.root == tmp_path

    def test_explicit_empty_string_overrides_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with default_cache_dir(""):
            assert get_default_cache() is None

    def test_context_manager_restores(self, tmp_path):
        previous = set_default_cache_dir(None)
        try:
            with default_cache_dir(str(tmp_path)):
                assert resolve_cache_dir() == str(tmp_path)
            assert resolve_cache_dir() is None
        finally:
            set_default_cache_dir(previous)

    def test_open_cache_is_per_process_singleton(self, tmp_path):
        assert open_cache(tmp_path) is open_cache(tmp_path)


class TestEngineIntegration:
    def test_second_search_hits_disk(self, tmp_path, bert_512):
        accel = edge()
        with default_cache_dir(str(tmp_path)):
            clear_evaluation_cache()
            cold = search(bert_512, accel, objective=Objective.RUNTIME,
                          retain_points=False)
            assert cold.stats.evaluated > 0
            assert cold.stats.disk_hits == 0
            # New process simulated by dropping the in-memory LRU.
            clear_evaluation_cache()
            warm = search(bert_512, accel, objective=Objective.RUNTIME,
                          retain_points=False)
        assert warm.stats.evaluated == 0
        assert warm.stats.disk_hits > 0
        assert warm.stats.disk_hits <= warm.stats.cache_hits
        assert warm.best.dataflow == cold.best.dataflow
        assert warm.best.cost.total_cycles == cold.best.cost.total_cycles

    def test_evaluate_cost_round_trips_through_disk(self, tmp_path,
                                                    small_cfg):
        accel = edge()
        dataflow = flat_r(8)
        with default_cache_dir(str(tmp_path)):
            clear_evaluation_cache()
            first = evaluate_cost(small_cfg, Scope.LA, accel, dataflow)
            clear_evaluation_cache()
            second = evaluate_cost(small_cfg, Scope.LA, accel, dataflow)
            pcache = get_default_cache()
        assert first == second
        assert pcache.stats.hits >= 1
        assert second == cost_scope(small_cfg, Scope.LA, accel, dataflow)

    def test_stats_deltas_subtract(self):
        a = CacheStats(lookups=8, hits=5, misses=3, writes=2, corrupt=1,
                       evictions=0)
        b = CacheStats(lookups=2, hits=1, misses=1, writes=1, corrupt=0,
                       evictions=0)
        assert (a - b) == CacheStats(lookups=6, hits=4, misses=2, writes=1,
                                     corrupt=1, evictions=0)


class TestSchemaUpgrade:
    def test_v2_search_entry_is_a_miss(self, tmp_path, bert_512):
        """A store written before the best-only answer became
        ``(dataflow, cost, space size)`` holds ``(index, cost)`` rows;
        the schema bump keeps the new code from ever reading them."""
        accel = edge()
        expected = search(bert_512, accel, retain_points=False)
        key = ("search", bert_512, accelerator_fingerprint(accel),
               PerfOptions(), Scope.LA, Objective.RUNTIME, None,
               SearchSpace())
        old = PersistentCache(tmp_path, fingerprint=cache_mod._fingerprint(2))
        old.put(key, (0, expected.best.cost))
        assert old.get(key) == (0, expected.best.cost)
        old.close()
        with default_cache_dir(str(tmp_path)):
            clear_evaluation_cache()
            result = search(bert_512, accel, retain_points=False)
            store = get_default_cache()
        assert store.stats.hits == 0 and store.stats.writes == 1
        assert result.stats.disk_hits == 0 and result.stats.evaluated > 0
        assert result.best == expected.best
        assert not old.path.exists()  # the first write swept generation 2


def _scaleout_system() -> ScaleoutSystem:
    return ScaleoutSystem(chip=edge())


_SCALEOUT_CFG = AttentionConfig(
    name="scale", batch=4, heads=4, d_model=64, seq_q=128, seq_kv=128,
    d_ff=256,
)


class TestOneEntryPerSearch:
    """Each re-asked call is one disk entry: one write cold, one read
    warm, and no per-member disk lookup in between."""

    def _cold_then_warm(self, tmp_path, call):
        with default_cache_dir(str(tmp_path)):
            clear_evaluation_cache()
            store = get_default_cache()
            cold = call()
            after_cold = store.stats.copy()
            clear_evaluation_cache()
            warm = call()
            warm_traffic = store.stats - after_cold
        assert after_cold.writes == 1
        assert after_cold.lookups == 1 and after_cold.misses == 1
        assert warm_traffic.lookups == warm_traffic.hits == 1
        assert warm_traffic.writes == 0
        return cold, warm

    def _check_search(self, cold, warm):
        assert warm.stats.evaluated == 0
        assert warm.stats.disk_hits == warm.stats.enumerated
        assert warm.best == cold.best

    def test_best_only_search(self, tmp_path, bert_512):
        self._check_search(*self._cold_then_warm(
            tmp_path,
            lambda: search(bert_512, edge(), retain_points=False),
        ))

    def test_search_past_the_batch_float64_edge(self, tmp_path):
        # Past the array path's int64 headroom (2**58 MAC-bytes per
        # operator): every member is scored on Python-int grid lanes.
        cfg = AttentionConfig(
            name="past", batch=2 ** 13, heads=16, d_model=1024,
            seq_q=2 ** 17, seq_kv=2 ** 17, d_ff=4096,
        )
        space = SearchSpace(allow_unfused=False,
                            granularities=(Granularity.R,),
                            include_plain_base=False)
        cold, warm = self._cold_then_warm(
            tmp_path,
            lambda: search(cfg, edge(), space=space, retain_points=False),
        )
        assert cold.stats.batch_evaluations == cold.stats.enumerated > 1
        assert cold.stats.evaluated == 1
        self._check_search(cold, warm)

    def test_every_point_search(self, tmp_path, bert_512):
        cold, warm = self._cold_then_warm(
            tmp_path,
            lambda: search(bert_512, edge(), objective=Objective.ENERGY,
                           retain_points=True),
        )
        self._check_search(cold, warm)
        assert warm.points == cold.points

    def test_search_scaleout(self, tmp_path):
        cold, warm = self._cold_then_warm(
            tmp_path,
            lambda: search_scaleout(_SCALEOUT_CFG, _scaleout_system(), 4),
        )
        assert cold.stats.inner_searches > 0
        assert warm.stats.memo_hits == 1 and warm.stats.inner_searches == 0
        assert warm.best == cold.best


def _balanced(stats: CacheStats) -> bool:
    return stats.hits + stats.misses == stats.lookups


def _used(cache: PersistentCache, key) -> int:
    with closing(sqlite3.connect(cache.path)) as conn:
        (used,) = conn.execute("SELECT used FROM entries WHERE key = ?",
                               (cache_mod._digest(key),)).fetchone()
    return used


class TestKeyDigest:
    def test_digest_of_part_digests(self):
        key = ("search", ("nested", 1), 2.5, None)
        parts = b"".join(hashlib.sha256(repr(part).encode()).digest()
                         for part in key)
        assert cache_mod._digest(key) == hashlib.sha256(parts).digest()

    def test_part_digests_are_memoized_across_keys(self):
        cache_mod._part_digest.cache_clear()
        shared = ("a shared part", 7)
        for i in range(5):
            cache_mod._digest(("k", shared, i))
        info = cache_mod._part_digest.cache_info()
        # "k" and ``shared`` are digested once and reused four times.
        assert info.misses == 2 + 5 and info.hits == 2 * 4


class TestBatchedWrites:
    """Inside ``batch()`` puts and touches are staged and committed in
    one transaction; outside it every operation commits at once."""

    def test_scope_defers_writes_to_one_flush(self, cache):
        reader = PersistentCache(cache.root)
        with cache.batch():
            for i in range(5):
                cache.put(("k", i), i)
            assert reader.get(("k", 0)) is None, "staged, not committed"
            assert cache.stats.writes == 0 and cache.stats.flushes == 0
        assert cache.stats.writes == 5 and cache.stats.flushes == 1
        assert [reader.get(("k", i)) for i in range(5)] == list(range(5))
        assert _balanced(cache.stats) and _balanced(reader.stats)

    def test_outside_a_scope_each_put_commits(self, cache):
        for i in range(3):
            cache.put(("k", i), i)
            assert cache.stats.writes == cache.stats.flushes == i + 1
        assert PersistentCache(cache.root).get(("k", 2)) == 2

    def test_nested_scopes_flush_at_the_outermost_exit(self, cache):
        with cache.batch():
            with cache.batch():
                cache.put(("k",), 1)
            assert cache.stats.flushes == 0
        assert cache.stats.flushes == 1 and cache.stats.writes == 1

    def test_pending_limit_flushes_inside_a_scope(self, cache,
                                                  monkeypatch):
        monkeypatch.setattr(cache_mod, "_PENDING_LIMIT", 4)
        with cache.batch():
            for i in range(6):
                cache.put(("k", i), i)
            assert cache.stats.flushes == 1 and cache.stats.writes == 4
        assert cache.stats.flushes == 2 and cache.stats.writes == 6

    def test_hit_touch_is_written_at_flush(self, cache):
        cache.put(("k",), 1)
        stamped = _used(cache, ("k",))
        with cache.batch():
            assert cache.get(("k",)) == 1
            assert _used(cache, ("k",)) == stamped
        assert _used(cache, ("k",)) > stamped
        assert cache.stats.writes == 1 and cache.stats.flushes == 2
        assert _balanced(cache.stats)

    def test_hit_on_a_staged_row_returns_an_equal_fresh_object(self,
                                                               cache):
        value = {"cost": [1, 2, 3]}
        with cache.batch():
            cache.put(("k",), value)
            first = cache.get(("k",))
            second = cache.get(("k",))
            assert first == value and first is not value
            assert second == value and second is not first
            first["cost"].append(4)
            assert cache.get(("k",)) == value, "staged bytes, not objects"
            assert cache.stats.hits == 3 and cache.stats.writes == 0
        assert PersistentCache(cache.root).get(("k",)) == value
        assert _balanced(cache.stats)

    def test_close_and_maintenance_flush_clear_drops(self, cache):
        with cache.batch():
            cache.put(("a",), 1)
            assert cache.entry_count() == 1
            cache.put(("b",), 2)
            cache.evict()
            cache.put(("c",), 3)
            cache.close()
            assert cache.stats.flushes == 3 and cache.stats.writes == 3
            cache.put(("d",), 4)
            cache.clear()
        assert cache.stats.flushes == 3
        assert cache.entry_count() == 0
        assert cache.get(("d",)) is None


def _check_child_buffers(cache: PersistentCache) -> None:
    # Runs in a child forked inside its parent's batch() scope.
    assert not cache._puts and not cache._touches
    assert cache._depth == 0, "the child starts outside every scope"
    assert cache.get(("parent",)) == "p"  # its touch commits at once
    cache.put(("child",), "c")  # and so does this row
    assert cache.stats.writes == 2 and cache.stats.flushes == 3
    os._exit(0)


def _kill_before_flush(name, **kwargs):
    from repro.experiments.runner import run_experiment

    report = run_experiment(name, **kwargs)
    if name == "ext-quant":
        os._exit(13)  # its answers are staged, not committed
    return report


class TestBatchedFaults:
    """The batched write path under the store's failure modes."""

    def test_locked_store_at_flush_drops_rows(self, cache, monkeypatch):
        cache.put(("k",), 1)
        cache.close()
        monkeypatch.setattr(cache_mod, "_BUSY_TIMEOUT_S", 0.01)
        with closing(sqlite3.connect(cache.path)) as holder:
            holder.execute("PRAGMA journal_mode=DELETE")
            with cache.batch():
                cache.put(("k2",), 2)
                holder.execute("BEGIN EXCLUSIVE")
            holder.rollback()
        stats = cache.stats
        assert stats.writes == 1 and stats.flushes == 1
        assert stats.corrupt == 0
        assert cache.get(("k2",)) is None, "the dropped row stays dropped"
        assert cache.get(("k",)) == 1, "the store works once unlocked"
        assert _balanced(cache.stats)

    def test_flush_failing_mid_transaction_rolls_back(self, cache):
        cache.put(("a",), 1)
        real = cache._conn

        class _FailsOnTouches:
            def __getattr__(self, name):
                return getattr(real, name)

            def __enter__(self):
                return real.__enter__()

            def __exit__(self, *exc):
                return real.__exit__(*exc)

            def executemany(self, sql, rows):
                if sql.startswith("UPDATE"):
                    raise sqlite3.OperationalError("disk I/O error")
                return real.executemany(sql, rows)

        cache._conn = _FailsOnTouches()
        with cache.batch():
            assert cache.get(("a",)) == 1
            cache.put(("b",), 2)
        assert not real.in_transaction
        assert cache.stats.writes == 1 and cache.stats.flushes == 1
        cache._conn = real
        assert PersistentCache(cache.root).get(("b",)) is None, (
            "the failed transaction's rows were rolled back"
        )
        cache.put(("c",), 3)
        assert cache.stats.writes == 2 and cache.get(("c",)) == 3
        assert _balanced(cache.stats)

    def test_store_deleted_before_flush_is_recreated(self, cache):
        cache.put(("a",), 1)
        with cache.batch():
            cache.put(("k",), 2)
            shutil.rmtree(cache.root)
        assert cache.path.exists()
        reader = PersistentCache(cache.root)
        assert reader.get(("k",)) == 2
        assert reader.get(("a",)) is None
        assert cache.stats.writes == 2 and cache.stats.flushes == 2
        assert _balanced(cache.stats) and _balanced(reader.stats)

    def test_fork_inside_a_scope(self, cache):
        ctx = multiprocessing.get_context("fork")
        with cache.batch():
            cache.put(("parent",), "p")
            child = ctx.Process(target=_check_child_buffers, args=(cache,))
            child.start()
            # The fork flushed the parent's row; nothing is left staged.
            assert cache.stats.writes == cache.stats.flushes == 1
            child.join(timeout=60)
            assert child.exitcode == 0
        assert cache.stats.writes == cache.stats.flushes == 1, (
            "the parent's rows are committed once"
        )
        assert cache.entry_count() == 2
        assert cache.get(("child",)) == "c"
        assert _balanced(cache.stats)

    def test_dead_worker_loses_only_its_answers(self, tmp_path,
                                                monkeypatch):
        from repro.experiments import pipeline as pipeline_mod
        from repro.experiments.pipeline import run_pipeline

        names = ("ext-quant", "ext-online")
        reference = run_pipeline(names=names, workers=1, cache_dir="")
        root = str(tmp_path / "c")
        with monkeypatch.context() as patch:
            patch.setattr(pipeline_mod, "run_experiment", _kill_before_flush)
            clear_evaluation_cache()
            first = run_pipeline(names=names, workers=2, cache_dir=root)
        died, survived = first.runs
        assert died.status == "error" and survived.ok
        # The store holds exactly the survivor's answers.  The survivor
        # may have committed them in the pool the killed worker broke
        # and then been re-run, finding every one on disk (``writes``
        # 0), so count its lookups: each is one distinct answer, and
        # each is a hit or a write.
        looked_up = survived.cache["lookups"]
        assert survived.cache["hits"] + survived.cache["writes"] == looked_up
        assert PersistentCache(root).entry_count() == looked_up
        clear_evaluation_cache()
        second = run_pipeline(names=names, workers=2, cache_dir=root)
        redo, warm = (run.cache for run in second.runs)
        assert redo["hits"] == 0 and redo["writes"] == redo["lookups"] > 0
        assert warm["misses"] == 0 and warm["hits"] == warm["lookups"] > 0
        assert [r.report for r in second.runs] == [
            r.report for r in reference.runs]
        for run in first.runs + second.runs:
            if run.cache:
                assert run.cache["hits"] + run.cache["misses"] == (
                    run.cache["lookups"])

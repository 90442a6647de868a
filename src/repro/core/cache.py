"""Persistent cross-run cache for DSE answers.

The engine's LRU dies with its process; this on-disk tier is shared
across processes and runs.  It holds one entry per *answer* of the
calls users ask again — :func:`~repro.core.engine.run_search`,
:func:`~repro.core.scaleout.search_scaleout` and
:func:`~repro.core.engine.evaluate_cost` — never one per evaluated
point.  Keys are hashed over their stable ``repr``.

* **Versioned.**  One stdlib :mod:`sqlite3` database in WAL mode per
  :func:`cost_model_fingerprint` (cost-model sources plus
  ``CACHE_SCHEMA_VERSION``): ``<root>/<fingerprint[:16]>.sqlite``.
  Eviction deletes other generations and old one-file-per-entry trees.
* **Safe.**  sqlite's locks serialize the writers of every process; a
  per-instance lock guards the connection and counters for threads.  A
  connection never crosses a ``fork``.  A locked, full or read-only
  store degrades to a no-op.  A row that does not unpickle is deleted;
  a file that is not a database is deleted and rebuilt.  A lookup that
  meets either is a miss *and* ``corrupt``, so
  ``hits + misses == lookups`` always.
* **Bounded.**  A process's first write, and every ``_EVICT_EVERY``-th
  after it, runs one ordered ``DELETE`` of the least recently used
  rows beyond ``max_entries``.

:func:`get_default_cache` resolves ``--cache-dir`` /
``REPRO_CACHE_DIR`` to a per-process singleton; :mod:`sqlite3` is
imported only when a store is first used.  See
``docs/experiments_pipeline.md`` for the layout.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import shutil
import threading
import time
import weakref
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.obs.metrics import active as _metrics_active

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "PersistentCache",
    "cost_model_fingerprint",
    "open_cache",
    "get_default_cache",
    "set_default_cache_dir",
    "default_cache_dir",
    "resolve_cache_dir",
]

#: Bump to invalidate every existing cache entry regardless of source
#: changes (e.g. when the entry payload format itself changes).
#: Version 2: one sqlite file per generation, one entry per search.
CACHE_SCHEMA_VERSION = 2

_ENV_VAR = "REPRO_CACHE_DIR"

# How long an operation waits on another process's lock before it
# gives up and degrades to a no-op.
_BUSY_TIMEOUT_S = 2.0

_EVICT_EVERY = 512

# synchronous=OFF: a power cut may lose recent writes or tear the file,
# which a cache can afford — a torn file is dropped and rebuilt.  Point
# lookups need few pages, so the page cache stays at 64 KiB.
_OPEN_STATEMENTS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA synchronous=OFF",
    "PRAGMA cache_size=-64",
    "CREATE TABLE IF NOT EXISTS entries ("
    "key BLOB PRIMARY KEY, value BLOB NOT NULL, used INTEGER NOT NULL)",
)

# Everything a cached ScopeCost can depend on.  ``repro.energy.model``
# is included because the pickled payload embeds ActivityCounts
# instances defined there; the energy *tables* stay absent on purpose —
# entries store only the deterministic ScopeCost and callers derive
# joules from its activity counts with their own table.  The lint rule
# R3 (repro.lint) checks this tuple against the required contract set.
_FINGERPRINT_MODULES: Tuple[str, ...] = (
    "repro.core.perf",
    "repro.core.footprint",
    "repro.core.tiling",
    "repro.core.batch",
    "repro.core.dataflow",
    "repro.core.dse",
    "repro.core.candidates",
    "repro.energy.model",
    "repro.ops.attention",
    "repro.ops.operator",
    "repro.ops.tensor",
    "repro.arch.accelerator",
    "repro.arch.pe_array",
    "repro.arch.memory",
    "repro.arch.noc",
    "repro.arch.sfu",
    "repro.arch.cluster",
    # The scale-out tier: cached ``scaleout-memo`` winners embed the
    # fabric collective formulas and the partition/sharding model, so
    # editing either must invalidate them.
    "repro.arch.fabric",
    "repro.core.scaleout",
)


@lru_cache(maxsize=None)
def _source_digest() -> str:
    """Digest of the cost-model source files (per-process constant)."""
    digest = hashlib.sha256()
    for name in _FINGERPRINT_MODULES:
        module = importlib.import_module(name)
        digest.update(name.encode())
        digest.update(Path(module.__file__).read_bytes())
    return digest.hexdigest()


def cost_model_fingerprint() -> str:
    """Identity of the cost model backing every cache entry.

    Hashes the source of the modules the cached :class:`ScopeCost`
    values are computed from, plus :data:`CACHE_SCHEMA_VERSION`.  Any
    edit to those files yields a new fingerprint, so stale entries can
    never be returned for a changed model.
    """
    return _fingerprint(CACHE_SCHEMA_VERSION)


@lru_cache(maxsize=None)
def _fingerprint(schema_version: int) -> str:
    digest = hashlib.sha256()
    digest.update(f"schema={schema_version}".encode())
    digest.update(_source_digest().encode())
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`PersistentCache` instance.

    Counters are per-process (workers sharing a directory each count
    their own traffic); aggregate across processes by summing.

    Invariant: every ``get`` is exactly one lookup and resolves to
    exactly one of hit or miss, so ``hits + misses == lookups`` always.
    ``corrupt`` counts dropped rows that do not unpickle and dropped
    files that are not databases; a lookup that meets either also
    counts a miss — corruption is never a third outcome.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(**{name: value - getattr(other, name)
                             for name, value in self.as_dict().items()})

    def copy(self) -> "CacheStats":
        return CacheStats(**self.as_dict())


@lru_cache(maxsize=256)  # a miss's put reuses its get's digest
def _digest(key: tuple) -> bytes:
    return hashlib.sha256(repr(key).encode()).digest()


def _close_across_forks(store: "PersistentCache") -> None:
    """Close ``store``'s connection before every ``fork``, holding its
    lock until the fork is done so no thread reopens it in between."""
    ref = weakref.ref(store)

    def before() -> None:
        live = ref()
        if live is not None:
            live._lock.acquire()
            live.close()

    def after() -> None:
        live = ref()
        if live is not None:
            live._lock.release()

    os.register_at_fork(before=before, after_in_parent=after,
                        after_in_child=after)


class PersistentCache:
    """One on-disk answer store rooted at ``root``.

    Safe for concurrent use from multiple processes *and*, per
    instance, from multiple threads; see the module docstring.
    ``fingerprint`` defaults to :func:`cost_model_fingerprint` and
    names the generation file this instance reads and writes.
    """

    def __init__(
        self,
        root: os.PathLike,
        fingerprint: Optional[str] = None,
        max_entries: int = 200_000,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = Path(root)
        self.fingerprint = fingerprint or cost_model_fingerprint()
        self.max_entries = max_entries
        self.path = self.root / f"{self.fingerprint[:16]}.sqlite"
        self.stats = CacheStats()
        self._conn: Any = None  # this process's sqlite3.Connection
        # Re-entrant because _put calls _evict while already held.
        self._lock = threading.RLock()
        _close_across_forks(self)

    # -- connection ------------------------------------------------------
    def _connection(self) -> Any:
        if self._conn is None:
            import sqlite3

            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.path, timeout=_BUSY_TIMEOUT_S, isolation_level=None,
                check_same_thread=False,
            )
            try:
                for statement in _OPEN_STATEMENTS:
                    conn.execute(statement)
            except sqlite3.Error:
                conn.close()
                raise
            self._conn = conn
        return self._conn

    def _attempt(self, op: Callable[[Any], Any]) -> Any:
        """``op(connection)``, or ``None`` when the store cannot serve it.

        A file that is not a database is deleted (the next operation
        rebuilds it) and counted as ``corrupt``.
        """
        import sqlite3

        try:
            return op(self._connection())
        except (OSError, sqlite3.OperationalError):
            return None
        except (sqlite3.ProgrammingError, sqlite3.InterfaceError):
            raise  # a bug here, not a damaged file
        except sqlite3.DatabaseError:
            self.stats.corrupt += 1
            self.close()
            for suffix in ("", "-wal", "-shm"):
                with suppress(OSError):
                    os.unlink(f"{self.path}{suffix}")
            return None

    def close(self) -> None:
        """Close this process's connection; the next operation reopens it."""
        with self._lock:
            conn, self._conn = self._conn, None
            if conn is not None:
                conn.close()

    # -- core operations -----------------------------------------------
    def get(self, key: tuple) -> Optional[object]:
        """Stored value for ``key``, or ``None`` on miss/corruption."""
        with self._lock:
            return self._observed("get", self._get, key)

    def put(self, key: tuple, value: object) -> None:
        """Store ``value`` under ``key`` (last-writer-wins)."""
        with self._lock:
            self._observed("put", self._put, key, value)

    def _observed(self, op: str, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)``, booking its time and counter deltas as metrics."""
        registry = _metrics_active()
        if registry is None:
            return fn(*args)
        before = self.stats.copy()
        start = time.perf_counter()
        result = fn(*args)
        registry.histogram(f"cache.{op}_s").observe(
            time.perf_counter() - start)
        for name, amount in (self.stats - before).as_dict().items():
            registry.counter(f"cache.{name}").inc(amount)
        stats = self.stats
        if stats.hits + stats.misses != stats.lookups:
            raise AssertionError(
                "cache accounting invariant violated: "
                f"hits={stats.hits} + misses={stats.misses} "
                f"!= lookups={stats.lookups}"
            )
        return result

    def _get(self, key: tuple) -> Optional[object]:
        self.stats.lookups += 1
        digest = _digest(key)
        rows = self._attempt(lambda conn: conn.execute(
            "SELECT value FROM entries WHERE key = ?", (digest,)
        ).fetchall())
        if rows:
            try:
                value = pickle.loads(rows[0][0])
            except Exception:
                # A truncated or garbled payload: drop the row.
                self.stats.corrupt += 1
                self._attempt(lambda conn: conn.execute(
                    "DELETE FROM entries WHERE key = ?", (digest,)))
            else:
                self.stats.hits += 1
                self._attempt(lambda conn: conn.execute(
                    "UPDATE entries SET used = ? WHERE key = ?",
                    (time.time_ns(), digest)))
                return value
        self.stats.misses += 1
        return None

    def _put(self, key: tuple, value: object) -> None:
        row = (_digest(key), pickle.dumps(value, pickle.HIGHEST_PROTOCOL),
               time.time_ns())
        if self._attempt(lambda conn: conn.execute(
            "INSERT OR REPLACE INTO entries VALUES (?, ?, ?)", row
        )) is None:
            return
        self.stats.writes += 1
        if self.stats.writes % _EVICT_EVERY == 1:
            self._evict()

    # -- maintenance ---------------------------------------------------
    def entry_count(self) -> int:
        """Number of entries in the live generation."""
        with self._lock:
            rows = self._attempt(lambda conn: conn.execute(
                "SELECT count(*) FROM entries").fetchall())
            return rows[0][0] if rows else 0

    def evict(self) -> int:
        """Sweep stale generations and enforce ``max_entries`` (LRU).

        Returns the number of live-generation entries removed; stale
        generations are deleted wholesale.
        """
        with self._lock:
            return self._observed("evict", self._evict)

    def _evict(self) -> int:
        self._sweep_stale()
        cursor = self._attempt(lambda conn: conn.execute(
            "DELETE FROM entries WHERE key IN (SELECT key FROM entries "
            "ORDER BY used DESC LIMIT -1 OFFSET ?)", (self.max_entries,)))
        removed = cursor.rowcount if cursor is not None else 0
        self.stats.evictions += removed
        return removed

    def _sweep_stale(self) -> None:
        """Delete other generations' files and one-file-per-entry trees."""
        with suppress(OSError):
            for path in list(self.root.iterdir()):
                if path.name.startswith(self.path.name):
                    continue
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                elif ".sqlite" in path.name:
                    path.unlink()

    def clear(self) -> None:
        """Delete every entry of the live generation."""
        with self._lock:
            self._attempt(lambda conn: conn.execute("DELETE FROM entries"))


# ----------------------------------------------------------------------
# default-cache plumbing (--cache-dir / REPRO_CACHE_DIR)
# ----------------------------------------------------------------------
# ``None``: defer to the environment variable.  ``""``: explicitly
# disabled (overrides the environment).  Anything else: a directory.
_default_dir: Optional[str] = None
_DEFAULT_DIR_LOCK = threading.Lock()
_instances: Dict[Tuple[str, str], PersistentCache] = {}
_INSTANCES_LOCK = threading.Lock()


def resolve_cache_dir() -> Optional[str]:
    """Directory the default cache would use, or ``None`` if disabled."""
    with _DEFAULT_DIR_LOCK:
        configured = _default_dir
    path = configured if configured is not None else os.environ.get(
        _ENV_VAR
    )
    return path or None


def open_cache(path: os.PathLike) -> PersistentCache:
    """Per-process singleton cache for ``path`` (one per fingerprint)."""
    key = (os.path.abspath(os.fspath(path)), cost_model_fingerprint())
    with _INSTANCES_LOCK:
        cache = _instances.get(key)
        if cache is None:
            cache = PersistentCache(key[0], fingerprint=key[1])
            _instances[key] = cache
    return cache


def get_default_cache() -> Optional[PersistentCache]:
    """The configured default cache, or ``None`` when caching is off."""
    path = resolve_cache_dir()
    return open_cache(path) if path else None


def set_default_cache_dir(path: Optional[str]) -> Optional[str]:
    """Set the default cache directory; returns the previous setting.

    ``None`` restores deference to ``REPRO_CACHE_DIR``; an empty string
    disables the default cache even if the environment sets one.
    """
    global _default_dir
    with _DEFAULT_DIR_LOCK:
        previous = _default_dir
        _default_dir = path
    return previous


@contextmanager
def default_cache_dir(path: Optional[str]) -> Iterator[None]:
    """Temporarily set the default cache directory (CLI plumbing).

    ``None`` leaves the current setting untouched, so an optional
    ``--cache-dir`` flag can be passed straight through; ``""``
    temporarily disables caching.
    """
    if path is None:
        yield
        return
    previous = set_default_cache_dir(path)
    try:
        yield
    finally:
        set_default_cache_dir(previous)

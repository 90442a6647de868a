"""Persistent cross-run cache for DSE evaluations.

:mod:`repro.core.engine` memoizes ``cost_scope`` evaluations in a
process-wide LRU, but that memo dies with the process: every CLI
invocation, benchmark run and CI job re-enumerates the same (workload,
accelerator, dataflow, options) grids from zero.  This module adds the
missing tier — an on-disk cache shared across processes and runs:

* **Content-addressed.**  Entries are keyed by the *same* evaluation
  fingerprint the in-memory LRU uses (``(AttentionConfig, accelerator
  fingerprint, Dataflow, PerfOptions, Scope)``), hashed via the stable
  ``repr`` of those frozen dataclasses.  One entry is one file under
  ``<root>/<model-fingerprint>/<hh>/<hash>.pkl``.

* **Versioned.**  Every entry lives under a directory named by
  :func:`cost_model_fingerprint` — a digest of the cost-model source
  files plus a schema version.  Change the model (or bump
  ``CACHE_SCHEMA_VERSION``) and the old entries become invisible; the
  next eviction pass garbage-collects them.

* **Process-safe.**  Writes go through a temp file in the same
  directory followed by an atomic :func:`os.replace`, so a reader never
  observes a half-written entry and concurrent writers of the same key
  settle on one intact copy.  Unreadable or truncated files (crashes,
  manual tampering) are counted as ``corrupt`` *and* as misses —
  deleted, never fatal — so ``hits + misses == lookups`` holds
  unconditionally (see :class:`CacheStats`).

* **Thread-safe.**  Each instance serializes its public operations
  behind a re-entrant lock: the serving layer (:mod:`repro.serve`)
  drives one shared instance from executor threads, and the stats
  counters plus the metrics delta in :meth:`PersistentCache.get` are
  read-modify-write sequences that would otherwise interleave.  The
  on-disk format needs no extra locking — atomicity already comes from
  ``os.replace``.

* **Bounded.**  ``max_entries`` caps the store; an eviction pass (every
  ``evict_interval`` local writes, or on demand) drops the
  least-recently-used entries — ``get`` refreshes an entry's mtime —
  and sweeps stale fingerprint generations.

The default cache is configured with ``--cache-dir`` on the CLI or the
``REPRO_CACHE_DIR`` environment variable; :func:`get_default_cache`
resolves that to a per-process singleton, so every search in a
process — and, through the shared directory, every pipeline worker —
reads and writes one store.
See ``docs/experiments_pipeline.md`` for layout and invalidation rules.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

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
CACHE_SCHEMA_VERSION = 1

_ENTRY_HEADER = "repro-dse-cache/1"
_ENV_VAR = "REPRO_CACHE_DIR"

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
    digest = hashlib.sha256()
    digest.update(f"schema={CACHE_SCHEMA_VERSION}".encode())
    digest.update(_source_digest().encode())
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`PersistentCache` instance.

    Counters are per-process (workers sharing a directory each count
    their own traffic); aggregate across processes by summing.

    Invariant: every ``get`` is exactly one lookup and resolves to
    exactly one of hit or miss, so ``hits + misses == lookups`` always.
    A corrupt entry (unreadable pickle, malformed payload) counts as a
    miss *and* bumps ``corrupt`` — ``corrupt`` subdivides misses, it is
    not a third outcome.
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
        return CacheStats(
            lookups=self.lookups - other.lookups,
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            writes=self.writes - other.writes,
            corrupt=self.corrupt - other.corrupt,
            evictions=self.evictions - other.evictions,
        )

    def copy(self) -> "CacheStats":
        return CacheStats(**self.as_dict())


class PersistentCache:
    """One on-disk evaluation store rooted at ``root``.

    Safe for concurrent use from multiple processes *and*, per
    instance, from multiple threads; see the module docstring for the
    guarantees.  ``fingerprint`` defaults to
    :func:`cost_model_fingerprint` and selects the generation directory
    all entries of this instance live in.
    """

    def __init__(
        self,
        root: os.PathLike,
        fingerprint: Optional[str] = None,
        max_entries: int = 200_000,
        evict_interval: int = 512,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if evict_interval < 1:
            raise ValueError("evict_interval must be >= 1")
        self.root = Path(root)
        self.fingerprint = fingerprint or cost_model_fingerprint()
        self.max_entries = max_entries
        self.evict_interval = evict_interval
        self.stats = CacheStats()
        self._generation = self.root / self.fingerprint[:16]
        self._generation.mkdir(parents=True, exist_ok=True)
        self._writes_since_evict = 0
        # Re-entrant because _put may call evict() while already held.
        self._lock = threading.RLock()

    # -- addressing ----------------------------------------------------
    def _entry_path(self, key: object) -> Tuple[Path, str]:
        key_repr = repr(key)
        digest = hashlib.sha256(key_repr.encode()).hexdigest()
        return self._generation / digest[:2] / f"{digest[2:]}.pkl", key_repr

    def _entry_files(self) -> List[Path]:
        return list(self._generation.glob("??/*.pkl"))

    # -- core operations -----------------------------------------------
    def get(self, key: object) -> Optional[object]:
        """Stored value for ``key``, or ``None`` on miss/corruption."""
        with self._lock:
            return self._get_observed(key)

    def _get_observed(self, key: object) -> Optional[object]:
        registry = _metrics_active()
        if registry is None:
            return self._get(key)
        before = self.stats.copy()
        start = time.perf_counter()
        value = self._get(key)
        elapsed = time.perf_counter() - start
        delta = self.stats - before
        registry.counter("cache.lookups").inc(delta.lookups)
        registry.counter("cache.hits").inc(delta.hits)
        registry.counter("cache.misses").inc(delta.misses)
        if delta.corrupt:
            registry.counter("cache.corrupt").inc(delta.corrupt)
        registry.histogram("cache.get_s").observe(elapsed)
        if self.stats.hits + self.stats.misses != self.stats.lookups:
            raise AssertionError(
                "cache accounting invariant violated: "
                f"hits={self.stats.hits} + misses={self.stats.misses} "
                f"!= lookups={self.stats.lookups}"
            )
        return value

    def _get(self, key: object) -> Optional[object]:
        self.stats.lookups += 1
        path, key_repr = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            # Truncated pickle, garbage bytes, unreadable file: drop the
            # entry and carry on — a corrupt entry is a miss that also
            # counts as corrupt.
            self._discard_corrupt(path)
            return None
        if (
            not isinstance(payload, tuple)
            or len(payload) != 3
            or payload[0] != _ENTRY_HEADER
            or payload[1] != key_repr
        ):
            self._discard_corrupt(path)
            return None
        self.stats.hits += 1
        try:
            os.utime(path)  # recency signal for LRU eviction
        except OSError:
            pass
        return payload[2]

    def put(self, key: object, value: object) -> None:
        """Store ``value`` under ``key`` (atomic, last-writer-wins)."""
        with self._lock:
            self._put_observed(key, value)

    def _put_observed(self, key: object, value: object) -> None:
        registry = _metrics_active()
        if registry is None:
            self._put(key, value)
            return
        before = self.stats.writes
        start = time.perf_counter()
        self._put(key, value)
        elapsed = time.perf_counter() - start
        registry.counter("cache.writes").inc(self.stats.writes - before)
        registry.histogram("cache.put_s").observe(elapsed)

    def _put(self, key: object, value: object) -> None:
        path, key_repr = self._entry_path(key)
        payload = pickle.dumps(
            (_ENTRY_HEADER, key_repr, value),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except OSError:
            # A full or read-only disk degrades the cache to a no-op.
            try:
                os.unlink(tmp)
            except (OSError, UnboundLocalError):
                pass
            return
        self.stats.writes += 1
        self._writes_since_evict += 1
        if self._writes_since_evict >= self.evict_interval:
            self.evict()

    def _discard_corrupt(self, path: Path) -> None:
        # A corrupt entry is still a failed lookup: count the miss so
        # ``hits + misses == lookups`` survives corruption.
        self.stats.misses += 1
        self.stats.corrupt += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- maintenance ---------------------------------------------------
    def entry_count(self) -> int:
        """Number of intact-looking entries in the live generation."""
        return len(self._entry_files())

    def evict(self) -> int:
        """Sweep stale generations and enforce ``max_entries`` (LRU).

        Returns the number of entries removed.  Races with concurrent
        evictors are benign: unlinking an already-unlinked file is a
        no-op.
        """
        with self._lock:
            registry = _metrics_active()
            if registry is None:
                return self._evict()
            start = time.perf_counter()
            removed = self._evict()
            elapsed = time.perf_counter() - start
            registry.counter("cache.evictions").inc(removed)
            registry.histogram("cache.evict_s").observe(elapsed)
            return removed

    def _evict(self) -> int:
        self._writes_since_evict = 0
        removed = 0
        for stale in self.root.iterdir():
            if stale == self._generation or not stale.is_dir():
                continue
            removed += sum(1 for _ in stale.glob("??/*.pkl"))
            shutil.rmtree(stale, ignore_errors=True)
        entries = self._entry_files()
        excess = len(entries) - self.max_entries
        if excess > 0:
            def mtime(path: Path) -> float:
                try:
                    return path.stat().st_mtime
                except OSError:
                    return 0.0

            for path in sorted(entries, key=mtime)[:excess]:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        # Leftover temp files from crashed writers are stale after any
        # completed write cycle; sweep them opportunistically.
        for tmp in self._generation.glob("??/*.tmp"):
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self.stats.evictions += removed
        return removed

    def clear(self) -> None:
        """Delete every entry of the live generation."""
        with self._lock:
            shutil.rmtree(self._generation, ignore_errors=True)
            self._generation.mkdir(parents=True, exist_ok=True)


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

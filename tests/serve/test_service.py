"""``execute_group``: the scheduler's work for one coalescing group."""

from __future__ import annotations

import pytest

from repro.core import dse
from repro.core.cache import default_cache_dir, get_default_cache
from repro.core.engine import clear_evaluation_cache
from repro.serve import service
from repro.serve.protocol import resolve_query


@pytest.mark.parametrize("k", [1, 3])
def test_search_group_commits_to_disk_once(tmp_path, monkeypatch, k):
    """k search misses of one group: one search each, one disk commit."""
    searches = []
    real = dse.search

    def counting(*args, **kwargs):
        searches.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(service, "search", counting)
    queries = [resolve_query({"op": "search", "model": "bert", "seq": seq,
                              "batch": 2})
               for seq in (256, 512, 1024)[:k]]
    clear_evaluation_cache()
    with default_cache_dir(str(tmp_path)):
        store = get_default_cache()
        before = store.stats.copy()
        payloads, used_grid = service.execute_group(queries)
        traffic = (store.stats - before).as_dict()
        # Memo hits now: the LRU answers them.
        assert payloads == [service.execute_query(q) for q in queries]
        store.close()
    assert used_grid is False
    assert len(searches) == 2 * k  # the group's, then the check's
    assert traffic["misses"] == traffic["writes"] == k
    assert traffic["flushes"] == 1

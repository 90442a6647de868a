"""Behavioral tests of the coalescing scheduler, with stubbed engines.

Every test runs a scenario coroutine under ``asyncio.run`` (the suite
has no async test plugin) against a :class:`CoalescingScheduler` whose
``group_fn`` is a counting stub — scheduling
behavior (batching, dedup, memoization, shedding, deadlines, drain) is
asserted without paying for the cost model.  End-to-end correctness of
the real evaluation paths is covered by ``test_server.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import pytest

from repro.arch.presets import edge
from repro.core.dataflow import flat_r
from repro.models.configs import model_config
from repro.ops.attention import Scope
from repro.serve.protocol import (
    DeadlineExceeded,
    Draining,
    Encoded,
    Overloaded,
    ProtocolError,
    Query,
)
from repro.serve.scheduler import CoalescingScheduler, SchedulerConfig

_CFG = model_config("bert", seq=512, batch=4)
_ACCEL = edge()


def cost_query(r: int = 64) -> Query:
    return Query(kind="cost", cfg=_CFG, accel=_ACCEL, scope=Scope.LA,
                 dataflow=flat_r(r))


def other_workload_query(r: int = 64) -> Query:
    return Query(kind="cost", cfg=model_config("bert", seq=1024, batch=4),
                 accel=_ACCEL, scope=Scope.LA, dataflow=flat_r(r))


class StubEngine:
    """Counting stand-in for execute_group: cost groups are recorded
    whole, other queries one by one."""

    def __init__(self, fail_with: Exception = None) -> None:
        self.group_calls = []
        self.query_calls = []
        self.fail_with = fail_with

    def group(self, queries):
        if self.fail_with is not None:
            raise self.fail_with
        if queries[0].kind != "cost":
            self.query_calls.extend(queries)
            return [{"kind": q.kind} for q in queries], False
        self.group_calls.append(list(queries))
        payloads = [
            {"df": q.dataflow.name, "rows": len(queries)} for q in queries
        ]
        return payloads, len(queries) > 1


async def answer(scheduler, query, deadline_s=None):
    """``submit`` awaited: the memoized answer, or the queued one."""
    pending = scheduler.submit(query, deadline_s)
    return pending if isinstance(pending, Encoded) else await pending


def run_scenario(scenario, config=None, engine=None):
    """Start a scheduler, run the coroutine, always drain."""
    engine = engine if engine is not None else StubEngine()
    config = config if config is not None else SchedulerConfig(window_ms=20)

    async def _main():
        scheduler = CoalescingScheduler(config, group_fn=engine.group)
        scheduler.start()
        try:
            return await scenario(scheduler)
        finally:
            await scheduler.drain()

    return asyncio.run(_main()), engine


def assert_accounting_balances(stats):
    assert (
        stats["requests"] - stats["memo_hits"] - stats["coalesced"]
        - stats["shed"] - stats["deadline_expired"]
        == stats["evaluations"]
    ), stats


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_evaluation(self):
        async def scenario(scheduler):
            results = await asyncio.gather(
                answer(scheduler, cost_query()),
                answer(scheduler, cost_query()),
                answer(scheduler, cost_query()),
            )
            return results, scheduler.stats()

        (results, stats), engine = run_scenario(scenario)
        assert results[0] is results[1] is results[2]
        assert stats["encodings_reused"] == stats["coalesced"] == 2
        # One dispatched group with one unique query in it.
        assert len(engine.group_calls) == 1
        assert len(engine.group_calls[0]) == 1
        assert stats["coalesced"] == 2
        assert stats["evaluations"] == 1
        assert_accounting_balances(stats)

    def test_distinct_dataflows_form_one_grid_group(self):
        async def scenario(scheduler):
            await asyncio.gather(
                answer(scheduler, cost_query(16)),
                answer(scheduler, cost_query(64)),
                answer(scheduler, cost_query(128)),
            )
            return scheduler.stats()

        stats, engine = run_scenario(scenario)
        assert len(engine.group_calls) == 1
        assert len(engine.group_calls[0]) == 3
        assert stats["grid_calls"] == 1
        assert stats["grid_rows"] == 3
        assert stats["coalesced"] == 0
        assert_accounting_balances(stats)

    def test_different_workloads_are_separate_groups(self):
        async def scenario(scheduler):
            await asyncio.gather(
                answer(scheduler, cost_query()),
                answer(scheduler, other_workload_query()),
            )
            return scheduler.stats()

        stats, engine = run_scenario(scenario)
        assert len(engine.group_calls) == 2
        assert stats["grid_calls"] == 0, "singleton groups take the scalar path"
        assert_accounting_balances(stats)

    def test_search_queries_use_the_scalar_path(self):
        query = dataclasses.replace(
            cost_query(), kind="search", dataflow=None,
        )

        async def scenario(scheduler):
            return await answer(scheduler, query)

        result, engine = run_scenario(scenario)
        assert result == {"kind": "search"}
        assert engine.group_calls == []
        assert len(engine.query_calls) == 1


class TestMemo:
    def test_repeat_is_served_from_the_memo(self):
        async def scenario(scheduler):
            first = await answer(scheduler, cost_query())
            second = await answer(scheduler, cost_query())
            return first, second, scheduler.stats()

        (first, second, stats), engine = run_scenario(scenario)
        assert first == second
        assert second is first, "the memo stores one encoded answer"
        assert len(engine.group_calls) == 1
        assert stats["memo_hits"] == 1
        assert stats["encodings_reused"] == 1
        assert stats["evaluations"] == 1
        assert_accounting_balances(stats)

    def test_memo_size_zero_disables_the_memo(self):
        async def scenario(scheduler):
            await answer(scheduler, cost_query())
            await answer(scheduler, cost_query())
            return scheduler.stats()

        stats, engine = run_scenario(
            scenario, config=SchedulerConfig(window_ms=0, memo_size=0)
        )
        assert stats["memo_hits"] == 0
        assert stats["evaluations"] == 2
        assert len(engine.group_calls) == 2

    def test_memo_evicts_least_recently_used(self):
        async def scenario(scheduler):
            await answer(scheduler, cost_query(16))
            await answer(scheduler, cost_query(64))  # evicts flat-r16
            await answer(scheduler, cost_query(16))  # must re-evaluate
            return scheduler.stats()

        stats, engine = run_scenario(
            scenario, config=SchedulerConfig(window_ms=0, memo_size=1)
        )
        assert stats["memo_hits"] == 0
        assert stats["evaluations"] == 3
        assert stats["memo_entries"] == 1


class TestAdmissionControl:
    def test_queue_overflow_sheds_with_overloaded(self):
        config = SchedulerConfig(window_ms=200, max_queue=2)

        async def scenario(scheduler):
            results = await asyncio.gather(
                answer(scheduler, cost_query(2)),
                answer(scheduler, cost_query(4)),
                answer(scheduler, cost_query(8)),
                answer(scheduler, cost_query(16)),
                return_exceptions=True,
            )
            return results, scheduler.stats()

        (results, stats), _ = run_scenario(scenario, config=config)
        shed = [r for r in results if isinstance(r, Overloaded)]
        served = [r for r in results if isinstance(r, Encoded)]
        assert len(shed) == 2 and len(served) == 2
        assert stats["shed"] == 2
        assert_accounting_balances(stats)

    def test_expired_deadline_is_rejected_before_evaluation(self):
        config = SchedulerConfig(window_ms=60)

        async def scenario(scheduler):
            live, dead = await asyncio.gather(
                answer(scheduler, cost_query(2)),
                answer(scheduler, cost_query(4), deadline_s=0.001),
                return_exceptions=True,
            )
            return live, dead, scheduler.stats()

        (live, dead, stats), engine = run_scenario(scenario, config=config)
        assert isinstance(live, Encoded)
        assert isinstance(dead, DeadlineExceeded)
        assert stats["deadline_expired"] == 1
        # The expired query never reached the engine.
        dispatched = [q for call in engine.group_calls for q in call]
        assert all(q.dataflow.name != flat_r(4).name for q in dispatched)
        assert_accounting_balances(stats)

    def test_generous_deadline_is_met(self):
        async def scenario(scheduler):
            return await answer(scheduler, cost_query(), deadline_s=30.0)

        result, _ = run_scenario(scenario)
        assert isinstance(result, Encoded)


class TestFailures:
    def test_protocol_error_propagates_typed(self):
        engine = StubEngine(fail_with=ProtocolError("boom", code="internal"))

        async def scenario(scheduler):
            with pytest.raises(ProtocolError) as excinfo:
                await answer(scheduler, cost_query())
            return excinfo.value

        error, _ = run_scenario(scenario, engine=engine)
        assert error.code == "internal"

    def test_unexpected_exception_becomes_internal_error(self):
        engine = StubEngine(fail_with=ValueError("kaboom"))

        async def scenario(scheduler):
            with pytest.raises(ProtocolError) as excinfo:
                await answer(scheduler, cost_query())
            return excinfo.value

        error, _ = run_scenario(scenario, engine=engine)
        assert error.code == "internal"
        assert "kaboom" in str(error)

    def test_failure_fans_out_to_coalesced_waiters(self):
        engine = StubEngine(fail_with=ValueError("kaboom"))

        async def scenario(scheduler):
            results = await asyncio.gather(
                answer(scheduler, cost_query()),
                answer(scheduler, cost_query()),
                return_exceptions=True,
            )
            return results

        results, _ = run_scenario(scenario, engine=engine)
        assert all(isinstance(r, ProtocolError) for r in results)


class TestFlush:
    def test_zero_window_flushes_on_the_next_pass(self):
        async def scenario(scheduler):
            pending = scheduler.submit(cost_query())
            queued = scheduler.stats()["queued"]
            await asyncio.sleep(0)
            flushed = scheduler.stats()
            await pending
            return queued, flushed

        (queued, flushed), engine = run_scenario(
            scenario, config=SchedulerConfig(window_ms=0)
        )
        assert queued == 1
        assert flushed["queued"] == 0 and flushed["batches"] == 1
        assert len(engine.group_calls) == 1

    def test_full_batch_flushes_before_its_window_closes(self):
        config = SchedulerConfig(window_ms=60_000, max_batch=3)

        async def scenario(scheduler):
            pending = [scheduler.submit(cost_query(r)) for r in (2, 4)]
            await asyncio.sleep(0)
            waiting = scheduler.stats()["queued"]
            pending.append(scheduler.submit(cost_query(8)))
            await asyncio.sleep(0)
            full = scheduler.stats()
            await asyncio.wait_for(asyncio.gather(*pending), timeout=30)
            return waiting, full

        (waiting, full), engine = run_scenario(scenario, config=config)
        assert waiting == 2, "below max_batch the window stays open"
        assert full["queued"] == 0 and full["batches"] == 1
        assert [len(call) for call in engine.group_calls] == [3]

    def test_failing_group_fails_only_its_own_waiters(self):
        class Picky(StubEngine):
            def group(self, queries):
                if queries[0].cfg != _CFG:
                    raise ValueError("kaboom")
                return super().group(queries)

        async def scenario(scheduler):
            return await asyncio.gather(
                answer(scheduler, cost_query(16)),
                answer(scheduler, other_workload_query()),
                answer(scheduler, cost_query(64)),
                answer(scheduler, other_workload_query()),
                return_exceptions=True,
            ), scheduler.stats()

        (results, stats), engine = run_scenario(scenario, engine=Picky())
        assert isinstance(results[0], Encoded)
        assert isinstance(results[2], Encoded)
        for failed in (results[1], results[3]):
            assert isinstance(failed, ProtocolError)
            assert failed.code == "internal" and "kaboom" in str(failed)
        assert stats["batches"] == 1 and stats["evaluations"] == 2
        assert [len(call) for call in engine.group_calls] == [2]

    def test_cheap_group_is_answered_while_its_batch_blocks(self):
        release = threading.Event()

        class Blocking(StubEngine):
            def group(self, queries):
                if queries[0].cfg != _CFG:
                    release.wait(timeout=30)
                return super().group(queries)

        async def scenario(scheduler):
            cheap = scheduler.submit(cost_query())
            blocked = scheduler.submit(other_workload_query())
            try:
                first = await asyncio.wait_for(cheap, timeout=30)
                blocked_done = blocked.done()
            finally:
                release.set()
            return first, blocked_done, await blocked, scheduler.stats()

        (first, blocked_done, last, stats), _ = run_scenario(
            scenario, engine=Blocking()
        )
        assert isinstance(first, Encoded) and isinstance(last, Encoded)
        assert not blocked_done, "the blocked group was still running"
        assert stats["batches"] == 1, "both groups shared one batch"


class TestDrain:
    def test_drain_completes_queued_work_then_rejects(self):
        engine = StubEngine()
        config = SchedulerConfig(window_ms=500)

        async def _main():
            scheduler = CoalescingScheduler(config, group_fn=engine.group)
            scheduler.start()
            # Queued behind a long window; drain must still answer it.
            pending = asyncio.ensure_future(answer(scheduler, cost_query()))
            await asyncio.sleep(0.01)
            await scheduler.drain()
            assert pending.done()
            result = await pending
            with pytest.raises(Draining):
                scheduler.submit(cost_query(2))
            return result, scheduler.stats()

        result, stats = asyncio.run(_main())
        assert isinstance(result, Encoded)
        assert stats["draining"] is True
        assert stats["evaluations"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(window_ms=-1)
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch=0)
        with pytest.raises(ValueError):
            SchedulerConfig(memo_size=-1)

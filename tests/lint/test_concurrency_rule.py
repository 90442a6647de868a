"""Fixture suite for R6 (concurrency discipline).

Positive fixtures assert rule id + line for every contract clause
(guarded fields, await-under-lock, blocking reachability, executor
escape hatches); no-false-positive tests lint the real serving/cache
modules with the shipped lock inventory.
"""

import textwrap
from pathlib import Path

from repro.lint import Contracts, LintEngine, ModuleUnit, lint
from repro.lint.rules_flow import ConcurrencyRule

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"

CONTRACTS = Contracts(
    lock_inventory={
        "fix.conc": {
            "locks": {
                "self._queue": "self._lock",
                "_totals": "_TOTALS_LOCK",
                "_flag": "_FLAG_LOCK",
            },
            "write_only": ("_flag",),
            "held_by": ("Box._drain",),
            "loop_confined": ("self._memo",),
            "executor_only": ("Box._score",),
        },
    },
    event_loop_modules=frozenset({"fix.conc"}),
)


def run_lint(source, module="fix.conc", contracts=CONTRACTS):
    unit = ModuleUnit.from_source(module, textwrap.dedent(source))
    engine = LintEngine(contracts, rules=[ConcurrencyRule()])
    return engine.lint_units([unit])


def only_finding(result):
    assert len(result.findings) == 1, [
        f.render() for f in result.findings
    ]
    return result.findings[0]


class TestGuardedFields:
    def test_unlocked_touch_flags(self):
        result = run_lint(
            """\
            class Box:
                def peek(self):
                    return len(self._queue)
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 3
        assert "self._lock" in finding.message

    def test_locked_touch_is_clean(self):
        result = run_lint(
            """\
            class Box:
                def peek(self):
                    with self._lock:
                        return len(self._queue)
            """
        )
        assert result.findings == []

    def test_held_by_helper_is_exempt(self):
        result = run_lint(
            """\
            class Box:
                def _drain(self):
                    return self._queue.pop()
            """
        )
        assert result.findings == []

    def test_init_is_exempt(self):
        result = run_lint(
            """\
            class Box:
                def __init__(self):
                    self._queue = []
            """
        )
        assert result.findings == []

    def test_init_touching_guarded_global_flags(self):
        # The constructor exemption covers the instance it builds, not
        # module-level state shared with every other instance.
        result = run_lint(
            """\
            class Box:
                def __init__(self):
                    self._queue = []
                    _totals["boxes"] = 1
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 4
        assert "_TOTALS_LOCK" in finding.message

    def test_init_touching_guarded_global_under_lock_is_clean(self):
        result = run_lint(
            """\
            class Box:
                def __init__(self):
                    self._queue = []
                    with _TOTALS_LOCK:
                        _totals["boxes"] = 1
            """
        )
        assert result.findings == []

    def test_module_global_write_without_lock_flags(self):
        result = run_lint(
            """\
            def bump(key):
                global _totals
                _totals = {}
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 3
        assert "_TOTALS_LOCK" in finding.message

    def test_module_global_mutation_under_lock_is_clean(self):
        result = run_lint(
            """\
            def bump(key):
                with _TOTALS_LOCK:
                    _totals[key] = _totals.get(key, 0) + 1
            """
        )
        assert result.findings == []

    def test_local_shadow_of_guarded_global_is_clean(self):
        result = run_lint(
            """\
            def summarize():
                _totals = {}
                return _totals
            """
        )
        assert result.findings == []

    def test_write_only_field_read_is_clean(self):
        result = run_lint(
            """\
            def get_flag():
                return _flag
            """
        )
        assert result.findings == []

    def test_write_only_field_write_still_needs_lock(self):
        result = run_lint(
            """\
            def set_flag(value):
                global _flag
                _flag = value
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 3


class TestAwaitUnderLock:
    def test_await_holding_thread_lock_flags(self):
        result = run_lint(
            """\
            class Box:
                async def fetch(self):
                    with self._lock:
                        return await self.remote()
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 4
        assert "awaits while holding" in finding.message

    def test_async_with_asyncio_lock_is_clean(self):
        result = run_lint(
            """\
            class Box:
                async def fetch(self):
                    async with self._alock:
                        return await self.remote()
            """
        )
        assert result.findings == []

    def test_await_after_release_is_clean(self):
        result = run_lint(
            """\
            class Box:
                async def fetch(self):
                    with self._lock:
                        snapshot = list(self._queue)
                    return await self.remote(snapshot)
            """
        )
        assert result.findings == []


class TestBlockingReachability:
    def test_direct_sleep_in_coroutine_flags(self):
        result = run_lint(
            """\
            import time

            async def handle(req):
                time.sleep(0.1)
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 4
        assert "time.sleep" in finding.message

    def test_transitive_blocking_via_helper_flags(self):
        result = run_lint(
            """\
            import subprocess

            def _compile(spec):
                return subprocess.run(spec)

            async def handle(req):
                return _compile(req)
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 4
        assert "subprocess.run" in finding.message
        assert "'handle'" in finding.message

    def test_open_in_coroutine_flags(self):
        result = run_lint(
            """\
            async def handle(path):
                with open(path) as fh:
                    return fh.read()
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 2

    def test_executor_only_helper_may_block(self):
        result = run_lint(
            """\
            import time

            class Box:
                def _score(self, xs):
                    time.sleep(0.1)
                    return xs

                async def handle(self, req):
                    return await self.loop.run_in_executor(
                        None, self._score, req
                    )
            """
        )
        assert result.findings == []

    def test_sleep_in_done_callback_flags(self):
        result = run_lint(
            """\
            import time

            class Box:
                def _written(self, future):
                    time.sleep(0.1)

                def handle(self, future):
                    future.add_done_callback(self._written)
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 5
        assert "time.sleep" in finding.message
        assert "callback 'Box._written'" in finding.message

    def test_blocking_behind_partial_timer_callback_flags(self):
        result = run_lint(
            """\
            import functools
            import subprocess

            def _flush(spec):
                subprocess.run(spec)

            def arm(loop, spec):
                loop.call_later(0.1, functools.partial(_flush, spec))
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 5
        assert "callback '_flush'" in finding.message

    def test_callback_dispatching_through_executor_submit_is_clean(self):
        result = run_lint(
            """\
            import time

            class Box:
                def _score(self, xs):
                    time.sleep(0.1)
                    return xs

                def _flush(self):
                    self._executor.submit(self._score, [])

                def arm(self, loop):
                    loop.call_soon(self._flush)
            """
        )
        assert result.findings == []

    def test_sleep_under_protocol_data_received_flags(self):
        result = run_lint(
            """\
            import asyncio
            import time

            class Server:
                def _handle_line(self, line):
                    time.sleep(0.1)

            class Conn(asyncio.Protocol):
                def __init__(self, server):
                    self._handle_line = server._handle_line

                def data_received(self, data):
                    self._handle_line(data)
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 6
        assert "callback 'Conn.data_received'" in finding.message
        assert "via 'Server._handle_line'" in finding.message

    def test_sleep_in_protocol_imported_by_name_flags(self):
        result = run_lint(
            """\
            import time
            from asyncio import BufferedProtocol

            class Conn(BufferedProtocol):
                def buffer_updated(self, nbytes):
                    time.sleep(0.1)
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 6
        assert "callback 'Conn.buffer_updated'" in finding.message

    def test_typing_protocol_methods_are_not_loop_callbacks(self):
        result = run_lint(
            """\
            import time
            from typing import Protocol

            class Sink(Protocol):
                def data_received(self, data):
                    time.sleep(0.1)
            """
        )
        assert result.findings == []

    def test_blocking_call_on_the_servers_read_path_flags(self):
        # The daemon's connections are protocols: a line reaches
        # DSEServer._handle_line from data_received, not a coroutine.
        path = SRC_REPRO / "serve" / "server.py"
        anchor = "        start = time.perf_counter()\n        try:\n"
        source = path.read_text()
        assert source.count(anchor) == 1
        unit = ModuleUnit.from_source(
            "repro.serve.server",
            source.replace(anchor, "        time.sleep(0)\n" + anchor),
        )
        engine = LintEngine(Contracts.discover(SRC_REPRO.parent),
                            rules=[ConcurrencyRule()])
        messages = [f.message for f in engine.lint_units([unit]).findings]
        assert messages and all("'time.sleep'" in m for m in messages)
        assert any("callback '_Connection.data_received' via "
                   "'DSEServer._handle_line'" in m for m in messages)

    def test_blocking_outside_event_loop_module_is_clean(self):
        result = run_lint(
            """\
            import time

            async def handle(req):
                time.sleep(0.1)
            """,
            module="fix.batchjob",
        )
        assert result.findings == []


class TestExecutorEscapeHatches:
    def test_executor_only_touching_loop_confined_flags(self):
        result = run_lint(
            """\
            class Box:
                def _score(self, xs):
                    return self._memo.get(xs)
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 3
        assert "loop-confined" in finding.message

    def test_coroutine_calling_executor_only_directly_flags(self):
        result = run_lint(
            """\
            class Box:
                async def handle(self, req):
                    return self._score(req)
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 3
        assert "run_in_executor" in finding.message


    def test_loop_callback_calling_executor_only_directly_flags(self):
        result = run_lint(
            """\
            class Box:
                def _flush(self):
                    return self._score([])

                def arm(self, loop):
                    loop.call_soon(self._flush)
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 3
        assert "executor.submit" in finding.message

    def test_executor_only_handed_to_the_loop_flags(self):
        result = run_lint(
            """\
            class Box:
                def arm(self, loop):
                    loop.call_soon_threadsafe(self._score, [])
            """
        )
        finding = only_finding(result)
        assert finding.rule == "R6" and finding.line == 3
        assert "runs it on the event loop" in finding.message


class TestSuppressionReasons:
    def test_reasonless_ignore_does_not_suppress_r6(self):
        result = run_lint(
            """\
            class Box:
                def peek(self):
                    return len(self._queue)  # repro-lint: ignore[R6]
            """
        )
        assert not result.ok

    def test_reasoned_ignore_suppresses_r6(self):
        result = run_lint(
            """\
            class Box:
                def peek(self):
                    return len(self._queue)  # repro-lint: ignore[R6] -- racy len is a hint only
            """
        )
        assert result.ok and len(result.suppressed) == 1


class TestNoFalsePositivesOnRealModules:
    def check_clean(self, relpath):
        result = lint(
            [SRC_REPRO / relpath],
            contracts=Contracts.discover(SRC_REPRO.parent),
            rules=[ConcurrencyRule()],
        )
        assert result.unsuppressed == [], [
            f.render() for f in result.unsuppressed
        ]

    def test_serve_scheduler_is_clean(self):
        self.check_clean("serve/scheduler.py")

    def test_serve_server_is_clean(self):
        self.check_clean("serve/server.py")

    def test_core_cache_is_clean(self):
        self.check_clean("core/cache.py")

    def test_obs_metrics_is_clean(self):
        self.check_clean("obs/metrics.py")

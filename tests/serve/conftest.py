"""Shared fixtures of the serving tests."""

import pytest

from repro.core.engine import clear_evaluation_cache
from repro.serve import SchedulerConfig, ServerThread, wait_for_server


@pytest.fixture(scope="module")
def server():
    """A live daemon on an ephemeral port, shared by one test module."""
    clear_evaluation_cache()
    with ServerThread(SchedulerConfig(window_ms=1.0)) as (host, port):
        wait_for_server(host, port, timeout=30)
        yield host, port

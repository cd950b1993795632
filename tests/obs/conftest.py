"""Fixtures for the observability suite: every test leaves the ambient
recorder/registry exactly as it found them (disabled, for the rest of the
test run)."""

import pytest

from repro.obs.trace import (
    TraceRecorder,
    active_recorder,
    disable_metrics,
    enable_metrics,
    metrics_enabled,
    set_recorder,
)


@pytest.fixture(autouse=True)
def _pristine_ambient_state():
    """Fail loudly if a test leaks an installed recorder or registry."""
    yield
    leaked_recorder = active_recorder() is not None
    leaked_registry = metrics_enabled()
    set_recorder(None)
    disable_metrics()
    assert not leaked_recorder, "test leaked an ambient TraceRecorder"
    assert not leaked_registry, "test leaked an enabled MetricsRegistry"


@pytest.fixture
def recorder():
    """A buffering, deterministic recorder installed as the ambient one."""
    rec = TraceRecorder(None, deterministic=True)
    previous = set_recorder(rec)
    yield rec
    set_recorder(previous)


@pytest.fixture
def registry():
    """A fresh enabled metrics registry."""
    reg = enable_metrics()
    yield reg
    disable_metrics()

"""Fixtures shared by the test modules."""

import pytest

from groupwalk import sampler


@pytest.fixture
def fork_every_span(monkeypatch):
    """Give every trajectory's draws a span of their own up to the worker
    cap: the worker-count tests run walks far below ``FORK_DRAWS``, which
    would otherwise all run in this process."""
    monkeypatch.setattr(sampler, "FORK_DRAWS", 1)

"""``cached_ball``, the ball cache's last name: it rebuilds and stores nothing.

It stays only because ``perfbench/tracer.py`` imports this module and wraps
``cached_ball``, a binding that ``tests/test_trace_bindings.py`` guards; it
goes with ROADMAP item 1.
"""

from typing import Optional

from .groups import Group
from .wordmetric import BallTable, build_ball


def cached_ball(group: Group, radius: int,
                cache_dir: Optional[str] = None) -> BallTable:
    """``build_ball(group, radius)``; ``cache_dir`` is ignored."""
    return build_ball(group, radius)

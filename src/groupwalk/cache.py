"""Content-addressed on-disk cache for ball tables.

Keys are the sha256 of (group id, generator serialization, radius, format
version); the payload is the versioned line-delimited text from wordmetric.
A cache hit therefore can never change numerical output: anything that
would change the table changes the key.

The CLI does not use this module: rebuilding a ball by BFS was faster than
reading its file at every size measured. It stays as library code while
the benchmark tracer still wraps ``cached_ball``.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Optional

from .errors import DomainError
from .groups import Group
from .wordmetric import (BALL_FORMAT_VERSION, BallTable, ball_from_text,
                         ball_to_text, build_ball)

CACHE_ENV_VAR = "GROUPWALK_CACHE_DIR"


def cache_dir_from_env(explicit: Optional[str] = None) -> Optional[str]:
    return explicit if explicit is not None else os.environ.get(CACHE_ENV_VAR)


def ball_cache_key(group: Group, radius: int) -> str:
    gens = ";".join(sorted(group.format_element(s)
                           for s in group.generators()))
    blob = f"ball|{group.id_string}|{gens}|{radius}|v{BALL_FORMAT_VERSION}"
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def ball_path(cache_dir: str, group: Group, radius: int) -> str:
    return os.path.join(cache_dir, f"ball-{ball_cache_key(group, radius)}.txt")


def cached_ball(group: Group, radius: int,
                cache_dir: Optional[str] = None) -> BallTable:
    """Load the ball from cache or build it (and store it) fresh.

    A file that is corrupt or truncated, or whose header names another
    group or radius, counts as a miss: the ball is rebuilt and the file
    rewritten. Each writer goes through its own temporary file, so
    concurrent writers never interleave.
    """
    cache_dir = cache_dir_from_env(cache_dir)
    if cache_dir is None:
        return build_ball(group, radius)
    path = ball_path(cache_dir, group, radius)
    try:
        with open(path, "r", encoding="ascii") as fh:
            table = ball_from_text(fh.read())
        if table.group == group and table.radius == radius:
            return table
    except (FileNotFoundError, UnicodeDecodeError, DomainError):
        pass
    table = build_ball(group, radius)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(ball_to_text(table))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return table

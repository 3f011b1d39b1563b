"""Bounded memo tables for the model's process-wide caches.

The pricing memos (plan-cost tuples, dense plan arrays) live for the
whole process, so each is a plain dict capped at a module-constant
size.  A full table drops its oldest entry before it
stores a new one: a dropped entry is recomputed on its next use, so a
bound only costs time, never a result.
"""

from __future__ import annotations

from typing import Dict, TypeVar

K = TypeVar("K")
V = TypeVar("V")


def remember(memo: Dict[K, V], key: K, value: V, limit: int) -> V:
    """Store ``memo[key] = value`` within ``limit`` entries; return it."""
    if len(memo) >= limit:
        del memo[next(iter(memo))]
    memo[key] = value
    return value

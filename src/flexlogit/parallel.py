"""Deterministic fan-out helper for replicate-style workloads.

Work items carry their own random streams, so scheduling order cannot change
results; this helper only preserves result order and caps worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from numbers import Integral

__all__ = ["check_threads", "parallel_map"]


def check_threads(threads) -> None:
    """Raise ``ValueError`` unless ``threads`` is an integer >= 1."""
    if isinstance(threads, bool) or not isinstance(threads, Integral) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")


def parallel_map(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))

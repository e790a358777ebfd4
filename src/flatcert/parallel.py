"""Serial map over per-torus work.

The mapped work is pure Python under the interpreter lock, so a thread pool
ran no faster than one thread; results come back in input order.
"""

from __future__ import annotations

__all__ = ["pmap"]


def pmap(fn, items) -> list:
    return [fn(x) for x in items]

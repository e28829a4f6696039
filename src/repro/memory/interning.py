"""Hash-consing of abstract values (the sharing machinery of Sect. 6.1.2).

The functional-map sharing shortcuts (``a is b`` in :mod:`.fmap`) only
fire when equal values are *physically identical*.  Transfer functions,
however, rebuild :class:`~repro.domains.values.CellValue` objects from
scratch on every execution, so a re-executed statement that computes the
same abstract value as last iteration still produces a fresh object —
and every map node above it is copied, every later merge re-walks it,
and every stability check re-compares it.

This module provides a bounded intern pool for cell values: the first
time a value is seen it becomes the canonical representative, and every
later structurally-equal value is replaced by that representative at the
point where it enters an environment (``MemoryEnv.set``/``weak_set``).
Interning is *semantics-free* by construction: a value is only ever
replaced by an ``==``-equal value, and the whole analyzer already treats
``==``-equal values as interchangeable (cell-wise merges return ``a``
when ``a == b``, dropping ``b``'s identity).  The only observable effect
is that the physical-identity fast paths fire far more often.

The pool is process-global and bounded: when it reaches its capacity
(:data:`POOL_CAPACITY`) it is simply cleared — interning is a cache,
and dropping it costs sharing, never correctness.  Disabling it (a
traced run, a certificate walk) stops it being consulted and filled
but keeps its entries and counters, so a long-lived process stays warm.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["POOL_CAPACITY", "configure", "intern_value", "intern_stats",
           "clear"]

#: Pool capacity (entries) that analyze_program configures for every
#: run except a traced one (the reference engine).
POOL_CAPACITY = 65536

# value -> canonical representative.  Keys and values are the same
# objects; CellValue is a frozen (hashable) dataclass.
_POOL: Dict[object, object] = {}
_MAX: int = POOL_CAPACITY
_ENABLED: bool = True
_HITS: int = 0
_MISSES: int = 0


def configure(max_size: int) -> bool:
    """Set the pool capacity; 0 (or negative) disables interning,
    keeping the entries.  Returns whether interning was enabled."""
    global _MAX, _ENABLED
    was_enabled = _ENABLED
    _MAX = max_size
    _ENABLED = max_size > 0
    return was_enabled


def clear() -> None:
    _POOL.clear()


def intern_stats():
    """(hits, misses, current pool size)."""
    return _HITS, _MISSES, len(_POOL)


def intern_value(value):
    """Return the canonical representative of an ``==``-equal value."""
    global _HITS, _MISSES
    if not _ENABLED:
        return value
    canon = _POOL.get(value)
    if canon is not None:
        _HITS += 1
        return canon
    try:
        if len(_POOL) >= _MAX:
            _POOL.clear()
        _POOL[value] = value
    except TypeError:  # unhashable (never for CellValue; stay safe)
        return value
    _MISSES += 1
    return value

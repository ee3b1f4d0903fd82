"""The search-scoped collector policy (DESIGN.md §5).

Almost everything an exhaustive search allocates stays live until the
search returns: visited keys, the parent map, the frontier and the
per-state transition memos.  CPython's generational collector assumes
young objects die young, so on this heap every older-generation
collection rescans survivors that will never become garbage.

:func:`frozen_survivors` scopes one search.  After every collection it
calls :func:`gc.freeze`, which moves the survivors into the permanent
generation that no later collection scans.  Young collections keep
running and keep freeing young cycles; only the rescans of the live
heap are skipped.  On exit the scope unfreezes, handing the heap back
to the collector.  ``gc.disable()`` is not an option: it also stops the
young collections, so cyclic garbage made by user hooks would grow
without bound.

The same callback meters the collector: :data:`GC_METER` counts
collections and the seconds spent in them while a scope is open, and
``explore`` reports the deltas as ``EngineStats.gc_collections`` and
``EngineStats.time_gc``.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Iterator, Tuple


class CollectorMeter:
    """Process-wide count of collections and collector seconds.

    The same discipline as :data:`repro.engine.keys.KEY_CACHE`: the
    engine snapshots it around a run and reports the delta.  It only
    advances while a :func:`frozen_survivors` scope is open.
    """

    __slots__ = ("collections", "seconds", "_t0")

    def __init__(self) -> None:
        self.collections = 0
        self.seconds = 0.0
        self._t0 = 0.0

    def snapshot(self) -> Tuple[int, float]:
        return self.collections, self.seconds


GC_METER = CollectorMeter()

#: open scopes in this process; only the outermost installs the hook
_depth = 0
#: whether the outermost scope freezes (False when the caller had
#: already frozen part of the heap: that heap is left alone)
_freezing = False


def _on_gc(phase: str, info: dict) -> None:
    if phase == "start":
        GC_METER._t0 = time.perf_counter()
        return
    GC_METER.seconds += time.perf_counter() - GC_METER._t0
    GC_METER.collections += 1
    if _freezing:
        gc.freeze()


@contextmanager
def frozen_survivors() -> Iterator[None]:
    """Freeze each collection's survivors until the outermost scope exits.

    Nesting-safe: a search started from inside another search's hook,
    an ``iddfs`` round or one of a fuzz campaign's many searches enters
    a nested scope, which changes nothing.  On exit the outermost scope
    removes its hook and unfreezes, so ``gc.callbacks`` and
    ``gc.get_freeze_count()`` are back to their entry values.  If the
    caller had already frozen objects, the scope meters but neither
    freezes nor unfreezes.  Searches run one per process (the parallel
    runner uses processes), so the scope is process-wide, not per
    thread.
    """
    global _depth, _freezing
    _depth += 1
    outermost = _depth == 1
    if outermost:
        _freezing = gc.get_freeze_count() == 0
        gc.callbacks.append(_on_gc)
    try:
        yield
    finally:
        _depth -= 1
        if outermost:
            gc.callbacks.remove(_on_gc)
            if _freezing:
                _freezing = False
                gc.unfreeze()

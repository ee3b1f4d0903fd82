"""Frontier abstractions — the pluggable part of a graph search.

A search strategy is nothing but a discipline for the set of discovered-
but-unexpanded configurations: pop oldest-first and the search is
breadth-first, pop newest-first and it is depth-first.  Iterative
deepening (``iddfs``) is not a frontier — it is a loop of depth-first
runs over growing ``max_events`` bounds, handled by the engine core —
but it is registered here so every strategy name resolves through one
function (see DESIGN.md §5).

Because exploration deduplicates by canonical key, all strategies visit
the same configuration set and count the same transitions; they differ
in memory profile (peak frontier size) and in which counterexample is
found first (BFS finds a shortest one).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, Tuple, Type, TypeVar

T = TypeVar("T")

#: Strategy names accepted by ``explore(strategy=...)`` and the CLI.
STRATEGIES = ("bfs", "dfs", "iddfs")


class Frontier(Generic[T]):
    """The set of discovered, not-yet-expanded search nodes."""

    def push(self, item: T) -> None:
        raise NotImplementedError

    def pop(self) -> T:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0

    def snapshot(self) -> List[T]:
        """The pending items, in an order ``restore`` understands.

        ``restore(snapshot())`` must reproduce the frontier exactly —
        same items, same future pop order — so a checkpointed search
        resumes byte-identically (DESIGN.md §16).
        """
        raise NotImplementedError

    def restore(self, items: List[T]) -> None:
        """Replace the frontier's contents with a prior ``snapshot``."""
        raise NotImplementedError


class BFSFrontier(Frontier[T]):
    """FIFO frontier — breadth-first search, shortest counterexamples."""

    def __init__(self) -> None:
        self._items: Deque[T] = deque()

    def push(self, item: T) -> None:
        self._items.append(item)

    def pop(self) -> T:
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def snapshot(self) -> List[T]:
        return list(self._items)

    def restore(self, items: List[T]) -> None:
        self._items = deque(items)


class DFSFrontier(Frontier[T]):
    """LIFO frontier — depth-first search, smallest memory footprint."""

    def __init__(self) -> None:
        self._items: List[T] = []

    def push(self, item: T) -> None:
        self._items.append(item)

    def pop(self) -> T:
        return self._items.pop()

    def __len__(self) -> int:
        return len(self._items)

    def snapshot(self) -> List[T]:
        return list(self._items)

    def restore(self, items: List[T]) -> None:
        self._items = list(items)


def frontier_class(strategy: str) -> Type[Frontier]:
    """The frontier class realising ``strategy``.

    ``iddfs`` maps to the depth-first frontier: each deepening round is
    a depth-first search under a tightened event bound.
    """
    normalized = strategy.lower()
    if normalized == "bfs":
        return BFSFrontier
    if normalized in ("dfs", "iddfs"):
        return DFSFrontier
    raise ValueError(
        f"unknown search strategy {strategy!r}; choose from {STRATEGIES}"
    )

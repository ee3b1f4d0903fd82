"""The search-scoped collector policy (DESIGN.md §5).

``explore`` freezes the survivors of every collection while it runs,
so the collector stops rescanning the live search heap.  Two things
make that safe, and both are pinned here:

* the searches make a constant amount of cyclic garbage, not an amount
  per configuration — otherwise freezing would hold a growing leak
  until the search returns;
* every search hands the collector back exactly as it found it:
  ``gc.callbacks`` and ``gc.get_freeze_count()`` return to their entry
  values on every exit path, and a caller's own frozen heap is left
  alone.

Collection counts vary from run to run, so no test compares them for
equality; they are only bounded from below by collections a hook
forces.
"""

from __future__ import annotations

import gc

import pytest

from repro.casestudies.peterson import PETERSON_INIT, peterson_program
from repro.casestudies.token_ring import TOKEN_INIT, token_ring_program
from repro.engine.collector import frozen_survivors
from repro.engine.stats import EngineStats
from repro.faults import FaultInterrupt, FaultPlan, clear_plan, set_plan
from repro.interp.explore import explore, reachable_states
from repro.interp.ra_model import RAMemoryModel
from repro.verify.outline import peterson_outline


@pytest.fixture(autouse=True)
def _restores_collector():
    """Every test leaves the collector as it found it."""
    callbacks = list(gc.callbacks)
    frozen = gc.get_freeze_count()
    yield
    clear_plan()
    assert gc.callbacks == callbacks
    assert gc.get_freeze_count() == frozen


def _cyclic_garbage(run):
    """The search's result and the unreachable objects it left behind,
    counted with the collector disabled for the whole search."""
    gc.collect()
    gc.disable()
    try:
        result = run()
        return result, gc.collect()
    finally:
        gc.enable()


def _ring3(max_events, reduction):
    return lambda: explore(
        token_ring_program(3), TOKEN_INIT, RAMemoryModel(),
        max_events=max_events, reduction=reduction,
    )


def _outline(max_events):
    return lambda: peterson_outline().check(
        peterson_program(), PETERSON_INIT, RAMemoryModel(),
        max_events=max_events,
    )


# ----------------------------------------------------------------------
# The safety premise: garbage does not grow with the search
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "small, large",
    [
        (_ring3(6, "none"), _ring3(10, "none")),
        (_ring3(6, "sleep"), _ring3(10, "sleep")),
        (_ring3(6, "optimal"), _ring3(10, "optimal")),
        (_outline(8), _outline(12)),
    ],
    ids=["ring3-none", "ring3-sleep", "ring3-optimal", "peterson-outline"],
)
def test_cyclic_garbage_does_not_grow_with_the_search(small, large):
    _cyclic_garbage(small)  # warm-up: lazy imports and first-use memos
    small_result, small_garbage = _cyclic_garbage(small)
    large_result, large_garbage = _cyclic_garbage(large)
    assert large_result.configs >= 4 * small_result.configs
    assert large_garbage <= small_garbage


# ----------------------------------------------------------------------
# Collector state is restored on every exit path
# ----------------------------------------------------------------------


def _ring3_input():
    return token_ring_program(3), TOKEN_INIT, RAMemoryModel()


def _collecting_hook(seen):
    """A configuration hook that forces a young collection and records
    the freeze count right after it."""

    def hook(config):
        if not seen:
            gc.collect(0)
            seen.append(gc.get_freeze_count())
        return []

    return hook


def test_normal_return_restores_and_freezes_during_the_search():
    seen = []
    result = explore(
        *_ring3_input(), max_events=6, check_config=_collecting_hook(seen),
    )
    assert result.configs == 507
    # the forced collection's survivors were frozen mid-search ...
    assert seen and seen[0] > 0
    # ... and counted; the autouse fixture checks they were unfrozen
    assert result.stats.gc_collections >= 1
    assert result.stats.time_gc >= 0.0


def test_raising_hook_restores():
    def hook(config):
        gc.collect(0)
        raise ValueError("hook failure")

    with pytest.raises(ValueError, match="hook failure"):
        explore(*_ring3_input(), max_events=6, check_config=hook)


def test_injected_interrupt_restores():
    set_plan(FaultPlan("interrupt:configs=50"))
    with pytest.raises(FaultInterrupt):
        explore(*_ring3_input(), max_events=6)


def test_nested_search_inside_a_hook_restores():
    program, init, model = _ring3_input()
    inner_counts = []

    def hook(config):
        if not inner_counts:
            gc.collect(0)
            outer_frozen = gc.get_freeze_count()
            _, inner = reachable_states(program, init, model, max_events=3)
            inner_counts.append(inner.configs)
            # the nested scope neither unfroze nor dropped the hook
            assert gc.get_freeze_count() >= outer_frozen > 0
        return []

    result = explore(program, init, model, max_events=6, check_config=hook)
    assert result.configs == 507 and inner_counts


def test_iddfs_rounds_restore():
    seen = []
    result = explore(
        *_ring3_input(), max_events=6, strategy="iddfs",
        check_config=_collecting_hook(seen),
    )
    assert result.stats.iterations > 1
    assert result.stats.gc_collections >= 1


def test_callers_frozen_heap_is_left_alone():
    sentinel = [object()]
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        seen = []
        result = explore(
            *_ring3_input(), max_events=6,
            check_config=_collecting_hook(seen),
        )
        # the scope froze nothing more and unfroze nothing
        assert seen == [frozen]
        assert gc.get_freeze_count() == frozen
        assert not any(obj is sentinel for obj in gc.get_objects())
        # the collector is still metered
        assert result.stats.gc_collections >= 1
    finally:
        gc.unfreeze()


def test_scope_nests_without_touching_the_collector():
    callbacks = list(gc.callbacks)
    with frozen_survivors():
        installed = list(gc.callbacks)
        assert len(installed) == len(callbacks) + 1
        with frozen_survivors():
            assert gc.callbacks == installed
        assert gc.callbacks == installed
    assert gc.callbacks == callbacks


# ----------------------------------------------------------------------
# Observability: the counters are folded wherever stats are
# ----------------------------------------------------------------------


def test_merge_round_folds_collector_counters():
    total = EngineStats(gc_collections=2, time_gc=0.5)
    total.merge_round(EngineStats(gc_collections=3, time_gc=0.25))
    assert (total.gc_collections, total.time_gc) == (5, 0.75)
    assert "gc=5/750.0ms" in total.summary()

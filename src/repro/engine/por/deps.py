"""The per-step dependency relation driving partial-order reduction.

Partial-order reduction is licensed by commutation: Proposition 4.1
(steps of distinct threads commute, ``repro.c11.prestate``) holds
unconditionally for pre-executions, and the RA/SRA event semantics
preserve it whenever two steps touch *disjoint* locations — adding an
event only ever constrains same-location ``mo``/``rf`` choices and the
``hb`` edges reaching the acting thread, neither of which a
different-location step of another thread can alter (DESIGN.md §9).

A step's *footprint* therefore captures everything the reduction may
rely on:

* the shared locations it reads and writes, as reported by
  :meth:`repro.interp.memory_model.MemoryModel.step_footprint` — two
  footprints conflict when they share a location and at least one side
  writes it (an RMW reads *and* writes, so it conflicts with every
  access on its location);
* a *visibility* bit: whether the step can change the control
  observables a configuration hook may inspect (a thread's program
  counter or termination status).  Visible steps are pairwise
  dependent, which keeps every interleaving of control-point changes —
  exactly what label-occupancy properties such as mutual exclusion need
  (see :func:`control_signature`).  Visibility is only tracked when the
  exploration actually carries a ``check_config`` hook; pure
  reachability runs leave it off and reduce harder.

Silent steps of different threads never conflict through memory (their
footprints are empty); with visibility off they are fully independent.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Optional, Tuple

from repro.lang.actions import Var
from repro.lang.semantics import PendingStep, is_terminated
from repro.lang.syntax import Com, program_counter

#: Reduction modes accepted by ``explore(reduction=...)`` and the CLI.
REDUCTIONS = ("none", "sleep", "optimal")


class StepFootprint(NamedTuple):
    """What one pending step may touch: locations plus control visibility."""

    reads: FrozenSet[Var]
    writes: FrozenSet[Var]
    visible: bool = False


#: The footprint of a silent, control-invisible step.
EMPTY_FOOTPRINT = StepFootprint(frozenset(), frozenset(), False)

#: Interned footprints keyed by their content (the empty footprint is
#: early-returned before the lookup, so it never appears here).  The
#: reduction layer recomputes every pending step's footprint at every
#: node; the location sets are already shared by the memory-model layer
#: (DESIGN.md §11), so the composed footprint objects intern cheaply
#: and node-to-node comparisons stay allocation-free.
_FOOTPRINT_CACHE: dict = {}


def conflicts(a: StepFootprint, b: StepFootprint) -> bool:
    """Whether two steps of *distinct* threads may fail to commute.

    Same-location with at least one write, or both control-visible.
    """
    if a.visible and b.visible:
        return True
    if a.writes and (a.writes & b.reads or a.writes & b.writes):
        return True
    return bool(b.writes & a.reads)


def control_signature(com: Com) -> Tuple[int, bool]:
    """The control observables of one thread: ``(pc, terminated)``.

    Exactly what the case-study hooks inspect (``Configuration.pc`` and
    ``Configuration.is_terminated``); a step that preserves both on its
    thread cannot change the truth of a label-occupancy property.
    """
    return (program_counter(com), is_terminated(com))


def step_changes_control(com: Com, step: PendingStep) -> bool:
    """Whether ``step`` can change its thread's control signature.

    Probed exactly: ``resume`` is a pure function and the successor's
    *structure* does not depend on the value filling a read hole
    (substitution replaces the leftmost load by a literal; branching on
    the value happens in a later, separate silent step), so a single
    probe value decides visibility for every admissible value.
    """
    return control_signature(step.resume(0)) != control_signature(com)


def step_footprint(
    model,
    state,
    program,
    tid: int,
    step,
    track_control: bool = False,
) -> StepFootprint:
    """The full footprint of ``step``: model-reported locations plus the
    control-visibility bit (only computed when a config hook is live).

    For a lowered step (DESIGN.md §12) visibility is read straight off
    the compiled table entry — the legacy path used to re-``resume`` the
    command at *every* node the reduction visits, even though the answer
    is a function of the instruction alone.  The legacy path still
    probes, but builds the thread's command only when the bit is
    actually tracked."""
    reads, writes = model.step_footprint(state, tid, step)
    if track_control:
        visible = getattr(step, "control_visible", None)
        if visible is None:
            visible = step_changes_control(program.command(tid), step)
    else:
        visible = False
    if not (reads or writes or visible):
        return EMPTY_FOOTPRINT
    key = (reads, writes, visible)
    cached = _FOOTPRINT_CACHE.get(key)
    if cached is None:
        cached = StepFootprint(reads, writes, visible)
        _FOOTPRINT_CACHE[key] = cached
    return cached


def pending_steps(program) -> "dict[int, PendingStep]":
    """The one pending step of every non-terminated thread.

    The uninterpreted semantics is deterministic up to the read hole
    (``repro.lang.semantics``): each command yields at most one step, so
    thread-granular reduction is well-defined — choosing a thread
    chooses its step, and only the memory model branches below it.
    Lowered programs answer from their cached per-node step table.
    """
    from repro.interp.compiled import LoweredProgram
    from repro.lang.program import program_steps

    if type(program) is LoweredProgram:
        return program.pending_steps()
    steps = {}
    for tid, step in program_steps(program):
        assert tid not in steps, "command semantics yields one step"
        steps[tid] = step
    return steps


__all__ = [
    "EMPTY_FOOTPRINT",
    "REDUCTIONS",
    "StepFootprint",
    "conflicts",
    "control_signature",
    "pending_steps",
    "step_changes_control",
    "step_footprint",
]

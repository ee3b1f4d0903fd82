"""The deterministic fault-injection harness (DESIGN.md §16).

Pins the :mod:`repro.faults` contract the chaos CI job and the
``--check-faults`` fuzz oracle lean on: the spec grammar (and its
loud rejection of malformed specs), the one-shot firing semantics
that keep injected faults from looping recovery forever, the
precedence of :func:`set_plan` over ``REPRO_FAULTS``, the ENOSPC
recovery path of the spillable visited set, and the per-run spill
directory claiming that keeps concurrent ``--spill-dir`` runs out of
each other's buckets.

CI runs this file in the chaos job.
"""

import multiprocessing
import os

import pytest

from repro import faults
from repro.casestudies.peterson import PETERSON_INIT, peterson_program
from repro.engine.visited import SpillableVisitedSet, claim_run_dir
from repro.faults import FaultPlan, active_plan, clear_plan, set_plan
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.litmus.registry import final_values

BOUND = 10


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test leaves the process with no armed fault plan."""
    yield
    clear_plan()


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------


def test_spec_parses_every_action():
    plan = FaultPlan("enospc:spill=3;interrupt:configs=100")
    assert plan.enospc_spill == 3
    assert plan.interrupt_configs == 100
    # the spec survives on the plan, so a fresh plan replays it
    replay = FaultPlan(plan.spec)
    assert (replay.enospc_spill, replay.interrupt_configs) == (3, 100)


def test_spec_accepts_repeats_and_blanks():
    # blank actions are skipped; a repeated action's last value wins
    plan = FaultPlan("interrupt:configs=5; ;interrupt:configs=9;")
    assert plan.interrupt_configs == 9
    assert plan.enospc_spill is None


@pytest.mark.parametrize(
    "spec,match",
    [
        ("explode:now=1", "unknown fault action"),
        # the actions of the removed sharded search
        ("kill-worker:shard=0,round=1", "unknown fault action"),
        ("delay-queue:ms=5", "unknown fault action"),
        ("enospc:spill=two", "must be an integer"),
        ("enospc", "requires spill"),
        ("interrupt:configs", "expected key=value"),
        ("enospc:spill=0", "1-based"),
        ("interrupt:configs=0", "configs must be >= 1"),
        ("interrupt:configs=5,extra=1", "unknown parameter"),
    ],
)
def test_malformed_specs_are_rejected(spec, match):
    with pytest.raises(ValueError, match=match):
        FaultPlan(spec)


# ----------------------------------------------------------------------
# One-shot firing semantics
# ----------------------------------------------------------------------


def test_interrupt_fires_once_at_the_threshold():
    plan = FaultPlan("interrupt:configs=10")
    assert not plan.interrupt_due(9)
    assert plan.interrupt_due(10)
    assert not plan.interrupt_due(11)  # one-shot: never again


def test_enospc_dooms_exactly_the_nth_write():
    plan = FaultPlan("enospc:spill=2")
    assert not plan.spill_write_fails()
    assert plan.spill_write_fails()
    assert not plan.spill_write_fails()


# ----------------------------------------------------------------------
# The active plan: set_plan vs REPRO_FAULTS
# ----------------------------------------------------------------------


def test_no_plan_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    clear_plan()
    assert active_plan() is None


def test_env_plan_is_parsed_once_and_stateful(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "interrupt:configs=77")
    clear_plan()
    plan = active_plan()
    assert plan is not None and plan.interrupt_configs == 77
    # the same (stateful) object comes back, so one-shot stays one-shot
    assert active_plan() is plan
    assert plan.interrupt_due(80)
    assert not active_plan().interrupt_due(80)


def test_set_plan_overrides_and_disarms_env(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "interrupt:configs=1")
    override = FaultPlan("enospc:spill=1")
    set_plan(override)
    assert active_plan() is override
    # explicit None beats the environment: the supervisor's disarm
    set_plan(None)
    assert active_plan() is None
    # dropping the override restores the environment plan
    clear_plan()
    env_plan = active_plan()
    assert env_plan is not None and env_plan.interrupt_configs == 1


# ----------------------------------------------------------------------
# ENOSPC recovery in the spillable visited set
# ----------------------------------------------------------------------


def test_spill_failure_is_absorbed(tmp_path):
    set_plan(FaultPlan("enospc:spill=1"))
    store = SpillableVisitedSet(
        spill_dir=str(tmp_path / "spill"), max_entries=2,
    )
    with store:
        for key in ((1,), (2,), (3,), (4,)):
            assert store.add(key)
        # the doomed spill was absorbed: membership intact, in memory
        assert store.spill_failures == 1
        assert store._spill_disabled
        assert not store.spilled
        for key in ((1,), (2,), (3,), (4,)):
            assert key in store
            assert not store.add(key)
        assert len(store) == 4


def test_spill_failure_keeps_exploration_identical(tmp_path):
    program = peterson_program(once=True)

    def outcomes(result):
        return frozenset(
            tuple(sorted(final_values(c).items())) for c in result.terminal
        )

    plain = explore(
        program, PETERSON_INIT, RAMemoryModel(), max_events=BOUND,
    )
    set_plan(FaultPlan("enospc:spill=1"))
    try:
        degraded = explore(
            program, PETERSON_INIT, RAMemoryModel(), max_events=BOUND,
            spill_dir=str(tmp_path / "spill"), spill_max_entries=1,
        )
    finally:
        clear_plan()
    assert degraded.stats.spill_failures >= 1
    assert degraded.configs == plain.configs
    assert degraded.transitions == plain.transitions
    assert outcomes(degraded) == outcomes(plain)


# ----------------------------------------------------------------------
# Per-run spill directory claiming
# ----------------------------------------------------------------------


def test_claims_are_unique_and_marked(tmp_path):
    base = str(tmp_path / "shared")
    first = claim_run_dir(base)
    second = claim_run_dir(base)
    assert first != second
    for path in (first, second):
        assert os.path.isdir(path)
        assert os.path.basename(path).startswith(f"run-{os.getpid()}-")
        with open(os.path.join(path, "pid"), encoding="ascii") as handle:
            assert int(handle.read()) == os.getpid()


def test_dead_run_leftovers_are_reaped(tmp_path):
    base = str(tmp_path / "shared")
    # a genuinely dead pid: fork a child and wait for it
    child = multiprocessing.Process(target=lambda: None)
    child.start()
    dead_pid = child.pid
    child.join()
    stale = os.path.join(base, f"run-{dead_pid}-deadbeef")
    os.makedirs(stale)
    with open(os.path.join(stale, "pid"), "w", encoding="ascii") as handle:
        handle.write(str(dead_pid))
    claim_run_dir(base)
    assert not os.path.exists(stale)


def test_live_and_unreadable_claims_survive(tmp_path):
    base = str(tmp_path / "shared")
    mine = claim_run_dir(base)  # own pid: never reaped
    # pid 1 is alive but unsignalable (EPERM) — must be left alone
    privileged = os.path.join(base, "run-1-cafe0000")
    os.makedirs(privileged)
    with open(os.path.join(privileged, "pid"), "w", encoding="ascii") as h:
        h.write("1")
    # a sibling mid-creation: no pid marker yet
    partial = os.path.join(base, "run-777-00000000")
    os.makedirs(partial)
    claim_run_dir(base)
    assert os.path.isdir(mine)
    assert os.path.isdir(privileged)
    assert os.path.isdir(partial)


def test_fault_interrupt_carries_its_checkpoint():
    exc = faults.FaultInterrupt("stopped", checkpoint="/tmp/x.ckpt")
    assert exc.checkpoint == "/tmp/x.ckpt"
    assert faults.FaultInterrupt("stopped").checkpoint is None

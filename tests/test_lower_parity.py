"""Lowering parity: the compiled dispatch must be observation-identical.

The tentpole guarantee of DESIGN.md §12, checked wholesale against the
legacy AST walker (``lowering_disabled()`` / ``REPRO_NO_LOWER=1``): the
entire litmus registry under every model and every reduction, the case
studies, and the pre-execution model on bounded programs — config count
for config count, transition for transition, outcome set for outcome
set.  ``repro fuzz --check-lowering`` extends the same oracle to
generated programs; CI's ``no-lower`` job runs the whole tier-1 suite
with the gate closed.
"""

import pickle

import pytest

from repro.engine.parallel import CASE_STUDIES, _case_study_exploration
from repro.interp.compiled import (
    LoweredProgram,
    lowering_disabled,
    maybe_lower,
)
from repro.interp.explore import explore
from repro.interp.pe_model import PEMemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.interp.sra_model import SRAMemoryModel
from repro.lang.builder import assign, eq, faa, if_, seq, var
from repro.lang.program import Program
from repro.litmus.extra import EXTRA_TESTS
from repro.litmus.registry import final_values, run_litmus
from repro.litmus.suite import ALL_TESTS

MODELS = {"ra": RAMemoryModel, "sra": SRAMemoryModel, "sc": SCMemoryModel}
REGISTRY = list(ALL_TESTS) + list(EXTRA_TESTS)


@pytest.fixture(autouse=True)
def _gate_open(monkeypatch):
    """Parity needs a lowered side to compare — pin the gate open so
    the suite stays a real A/B under CI's ``no-lower`` job too."""
    monkeypatch.delenv("REPRO_NO_LOWER", raising=False)


def outcome_set(result):
    return frozenset(
        tuple(sorted(final_values(c).items())) for c in result.terminal
    )


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("reduction", ["none", "sleep", "optimal"])
def test_litmus_registry_lowering_parity(model_name, reduction):
    """Every registry test: lowered and legacy explorations must agree
    on the verdict, the truncation flag, the exact config/transition
    counts and the terminal outcome set."""
    for test in REGISTRY:
        lowered = run_litmus(test, MODELS[model_name](), reduction=reduction)
        with lowering_disabled():
            legacy = run_litmus(
                test, MODELS[model_name](), reduction=reduction
            )
        tag = f"{test.name} [{model_name}/{reduction}]"
        assert lowered.reachable == legacy.reachable, f"{tag} verdict"
        assert lowered.truncated == legacy.truncated, f"{tag} truncation"
        assert lowered.configs == legacy.configs, f"{tag} config count"
        assert (
            lowered.result.transitions == legacy.result.transitions
        ), f"{tag} transition count"
        assert outcome_set(lowered.result) == outcome_set(legacy.result), (
            f"{tag} outcome set"
        )


@pytest.mark.parametrize("name", sorted(CASE_STUDIES))
@pytest.mark.parametrize("reduction", ["none", "optimal"])
def test_case_study_lowering_parity(name, reduction):
    lowered = _case_study_exploration(name, "bfs", None, reduction=reduction)
    with lowering_disabled():
        legacy = _case_study_exploration(
            name, "bfs", None, reduction=reduction
        )
    assert lowered.ok == legacy.ok
    assert lowered.truncated == legacy.truncated
    assert lowered.configs == legacy.configs
    assert lowered.transitions == legacy.transitions


PE_PROGRAMS = [
    (
        "sb",
        Program.parallel(
            seq(assign("x", 1), assign("a", var("y"))),
            seq(assign("y", 1), assign("b", var("x"))),
        ),
        {"x": 0, "y": 0, "a": 0, "b": 0},
    ),
    (
        "faa-race",
        Program.parallel(faa("c", 1, "r0"), faa("c", 1, "r1")),
        {"c": 0, "r0": 0, "r1": 0},
    ),
]


@pytest.mark.parametrize(
    "name,program,init", PE_PROGRAMS, ids=[p[0] for p in PE_PROGRAMS]
)
def test_pe_model_lowering_parity(name, program, init):
    """Pre-executions enumerate read holes over a finite domain — the
    lowered read dispatch must produce the same bounded state space."""
    model = PEMemoryModel.for_program(program, init)
    lowered = explore(program, init, model, max_events=8, max_configs=50_000)
    with lowering_disabled():
        legacy = explore(
            program, init, model, max_events=8, max_configs=50_000
        )
    assert lowered.truncated == legacy.truncated
    assert lowered.configs == legacy.configs
    assert lowered.transitions == legacy.transitions
    # PE states carry event structure rather than a store, so compare
    # terminal populations instead of final-value maps.
    assert len(lowered.terminal) == len(legacy.terminal)


def test_lowered_program_pickle_round_trip():
    """``LoweredProgram.__reduce__`` ships the source and re-lowers on
    load — the suite runner sends programs to worker processes."""
    program = Program.parallel(
        seq(assign("x", 1), assign("a", var("y"))),
        seq(assign("y", 1), assign("b", var("x"))),
    )
    low = maybe_lower(program)
    assert type(low) is LoweredProgram
    clone = pickle.loads(pickle.dumps(low))
    assert type(clone) is LoweredProgram
    assert clone == low
    init = {"x": 0, "y": 0, "a": 0, "b": 0}
    a = explore(low.table.source, init, RAMemoryModel())
    b = explore(clone.table.source, init, RAMemoryModel())
    assert a.configs == b.configs and a.transitions == b.transitions


def test_unlowerable_program_falls_back_to_the_walker():
    """A thread the compiler refuses (literal aliasing) explores through
    the legacy walker — same results, plain ``Program`` configurations."""
    tricky = if_(eq(var("c"), 0), assign("y", 0), assign("y", var("x")))
    program = Program.parallel(tricky, assign("x", 1))
    assert maybe_lower(program) is program  # refusal reaches the gate
    init = {"c": 0, "x": 0, "y": 0}
    lowered_path = explore(program, init, RAMemoryModel())
    with lowering_disabled():
        legacy = explore(program, init, RAMemoryModel())
    assert lowered_path.configs == legacy.configs
    assert lowered_path.transitions == legacy.transitions
    assert outcome_set(lowered_path) == outcome_set(legacy)

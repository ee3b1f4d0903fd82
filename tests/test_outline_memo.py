"""Per-configuration obligation discharge (DESIGN.md §10).

``ProofOutline.check`` evaluates each distinct configuration's outline
once and reuses the result for every transition entering or leaving it.
These tests hold that memoized discharge to a brute-force reference —
``check_inductive_step`` re-evaluated on every transition, the paper's
obligation read literally — and pin how much assertion work it does.
"""

import pytest

from repro.casestudies.dekker import DEKKER_INIT, dekker_entry_program, dekker_outline
from repro.casestudies.message_passing import MP_INIT, message_passing_broken, mp_outline
from repro.casestudies.peterson import PETERSON_INIT, peterson_program, peterson_relaxed_turn
from repro.casestudies.spinlock import SPINLOCK_INIT, spinlock_broken, spinlock_outline
from repro.cli import main
from repro.interp.config import Configuration
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.lang.builder import assign, seq
from repro.lang.program import Program
from repro.obs.ledger import read_ledger
from repro.verify.assertions import DV
from repro.verify.invariants import Invariant, check_inductive_step
from repro.verify.outline import ObligationFailure, ProofOutline, peterson_outline
from repro.verify.registry import PROOFS, ProofCaseStudy, ProofRegistry, model_by_name


def reference(outline, program, init, model, max_events=None,
              reduction="none", keep_failures=10):
    """The report fields, discharged transition by transition with no
    reuse between transitions."""
    invariants = outline.invariants
    per_invariant = {}
    failures = []
    obligations = 0

    def count(name, failed):
        nonlocal obligations
        ok, bad = per_invariant.get(name, (0, 0))
        per_invariant[name] = (ok + (not failed), bad + failed)
        obligations += 1

    initial = Configuration(program, model.initial(init))
    for inv in invariants:
        failed = not inv.holds(initial)
        count(inv.name, failed)
        if failed:
            failures.append(str(ObligationFailure("initialisation", inv.name)))

    def on_step(step):
        if not outline.holds(step.source):
            return []
        broken = set(check_inductive_step(step, invariants))
        for inv in invariants:
            failed = inv.name in broken
            count(inv.name, failed)
            if failed and len(failures) < keep_failures:
                failures.append(
                    str(ObligationFailure("preservation", inv.name, step))
                )
        return []

    result = explore(
        program, init, model, max_events=max_events, check_step=on_step,
        reduction=reduction,
    )
    return {
        "configs": result.configs,
        "transitions": result.transitions,
        "obligations": obligations,
        "per_invariant": per_invariant,
        "failures": failures,
    }


def memoized(outline, program, init, model, max_events=None,
             reduction="none"):
    report = outline.check(
        program, init, model=model, max_events=max_events,
        reduction=reduction,
    )
    return {
        "configs": report.configs,
        "transitions": report.transitions,
        "obligations": report.obligations_discharged,
        "per_invariant": report.per_invariant,
        "failures": [str(f) for f in report.failures],
    }


def many_failures_case():
    """One writer breaks the outline, two bystanders multiply the
    transitions that carry the break: 16 failed obligations, more
    than the default ``keep_failures`` of 10."""
    outline = ProofOutline().everywhere("x stays 0 for t1", DV("x", 1, 0))
    program = Program.parallel(
        assign("x", 1),
        seq(assign("y", 1), assign("y", 2), assign("y", 3)),
        seq(assign("z", 1), assign("z", 2), assign("z", 3)),
    )
    return outline, program, {"x": 0, "y": 0, "z": 0}, RAMemoryModel(), None


CANARIES = {
    "relaxed-turn-peterson": lambda: (
        peterson_outline(), peterson_relaxed_turn(once=True), PETERSON_INIT,
        RAMemoryModel(), 9,
    ),
    "broken-spinlock": lambda: (
        spinlock_outline(), spinlock_broken(), SPINLOCK_INIT,
        RAMemoryModel(), 10,
    ),
    "dekker-under-ra": lambda: (
        dekker_outline(), dekker_entry_program(), DEKKER_INIT,
        RAMemoryModel(), None,
    ),
    "mp-without-release": lambda: (
        mp_outline(), message_passing_broken(), MP_INIT, RAMemoryModel(), 10,
    ),
    "more-than-keep-failures": many_failures_case,
}


@pytest.mark.parametrize("reduction", ["none", "sleep"])
@pytest.mark.parametrize(
    "name,model", [(e.name, m) for e, m in PROOFS.pairs()],
)
def test_registry_reports_match_reference(name, model, reduction):
    entry = PROOFS.get(name)

    def case():
        return (
            entry.outline(), entry.program(), dict(entry.init),
            model_by_name(model), entry.max_events,
        )

    expected = reference(*case(), reduction=reduction)
    assert memoized(*case(), reduction=reduction) == expected
    assert expected["obligations"] > 0


@pytest.mark.parametrize("reduction", ["none", "sleep"])
@pytest.mark.parametrize("name", sorted(CANARIES))
def test_canary_reports_match_reference(name, reduction):
    expected = reference(*CANARIES[name](), reduction=reduction)
    assert memoized(*CANARIES[name](), reduction=reduction) == expected
    assert expected["failures"]


def test_failures_beyond_keep_failures_are_counted():
    outline, program, init, model, _ = many_failures_case()
    report = outline.check(program, init, model=model)
    assert len(report.failures) == 10
    assert report.per_invariant == {"x stays 0 for t1": (25, 16)}
    assert report.failed_obligations == 16
    assert "16 FAILED" in report.row()


# ----------------------------------------------------------------------
# Work: one evaluation per distinct configuration
# ----------------------------------------------------------------------


@pytest.fixture
def holds_calls(monkeypatch):
    calls = []
    original = Invariant.holds

    def counting(self, config):
        calls.append(None)
        return original(self, config)

    monkeypatch.setattr(Invariant, "holds", counting)
    return calls


@pytest.mark.parametrize("reduction", ["none", "sleep"])
def test_peterson_outline_evaluates_each_configuration_once(
    holds_calls, reduction
):
    outline = peterson_outline()
    report = outline.check(
        peterson_program(once=True), PETERSON_INIT, max_events=9,
        reduction=reduction,
    )
    assert report.proved
    assert report.obligations_discharged == {"none": 5556, "sleep": 4344}[reduction]
    # the initial configuration is evaluated once before the search,
    # then every distinct configuration at most once
    assert len(holds_calls) <= len(outline.invariants) * (report.configs + 1)


# ----------------------------------------------------------------------
# The CLI counts every failed obligation, not only the kept failures
# ----------------------------------------------------------------------


@pytest.fixture
def ledger_path(tmp_path, monkeypatch):
    path = tmp_path / "runs.jsonl"
    monkeypatch.delenv("REPRO_NO_LEDGER", raising=False)
    monkeypatch.setenv("REPRO_LEDGER", str(path))
    return str(path)


def test_verify_name_ledgers_every_failed_obligation(
    ledger_path, monkeypatch, capsys
):
    outline, program, init, _, _ = many_failures_case()
    registry = ProofRegistry()
    registry.register(ProofCaseStudy(
        name="x-stays-0", description="refuted by design",
        program=lambda: program, outline=lambda: outline, init=init,
    ))
    monkeypatch.setattr("repro.verify.registry.PROOFS", registry)
    assert main(["verify", "x-stays-0"]) == 1
    assert "16 FAILED" in capsys.readouterr().out
    (record,) = read_ledger(ledger_path)
    assert record["stats"]["failed_obligations"] == 16
    assert record["stats"]["obligations"] == 41


def test_verify_file_ledgers_its_stats(ledger_path, tmp_path, capsys):
    litmus = tmp_path / "many.litmus"
    litmus.write_text(
        "C11 many\n{ x = 0; y = 0; z = 0 }\n"
        "P1: x := 1\nP2: y := 1; y := 2; y := 3\nP3: z := 1; z := 2; z := 3\n"
    )
    spec = tmp_path / "spec.py"
    spec.write_text(
        'OUTLINE = ProofOutline().everywhere("x stays 0 for t1", DV("x", 1, 0))\n'
    )
    assert main([
        "verify", "--file", str(litmus), "--outline", str(spec),
    ]) == 1
    capsys.readouterr()
    (record,) = read_ledger(ledger_path)
    assert record["stats"]["failed_obligations"] == 16
    assert record["stats"]["obligations"] == 41
    assert record["stats"]["configs"] > 0

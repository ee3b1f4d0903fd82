"""Proof outlines: per-program-location assertions, checked inductively.

The paper's Peterson proof is organised exactly this way — "at pc_t ∈
{4,5,6} the assertion … holds" — with one preservation argument per
transition (Appendix D).  A :class:`ProofOutline` packages that shape:

* an assertion attached to each *pc vector* predicate (or to every
  state, for global invariants like "turn is update-only");
* :meth:`ProofOutline.check` explores the program and discharges, for
  every transition, the paper's two obligations:

  1. **initialisation** — the outline holds in the initial
     configuration;
  2. **preservation** — if the outline holds at the source of a
     transition, it holds at the target (checked *per transition*, not
     merely per reachable state, matching the inductive proof structure;
     over an exhaustively explored space the two coincide, but failures
     report the offending transition, which is what one debugs with).

Both obligations are predicates over a configuration ``(P, σ)``, so
:meth:`ProofOutline.check` evaluates the outline once per *distinct*
configuration: each configuration's per-invariant result vector is
memoized under the explorer's own canonical key
(:func:`repro.engine.core._key_of`) and every later source or target
test of it is a lookup.  Obligations are still counted per transition —
transitions are tallied per target vector and folded into the report
after the search.  The contract that makes this sound is the one the
explorer already relies on when it expands one representative per key:
an assertion must be a function of the canonical configuration
(DESIGN.md §10, "Obligation discharge").

This is the semantic counterpart of the syntactic
:class:`~repro.verify.calculus.AssertionContext`; use the outline to
state *what* holds where, and the calculus to replay *why*.

Outline checking is the core of the verification workbench
(``python -m repro verify``, DESIGN.md §10): the named case studies of
:mod:`repro.verify.registry` each pair a program with an outline built
here, and :meth:`ProofOutline.check` accepts the engine's ``strategy``
and ``reduction`` knobs — ``"sleep"`` is configuration-identical and
therefore verdict-preserving for the obligations; ``"optimal"`` prunes
configurations outright and is rejected (the CLI falls back to
``"none"`` and says so).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.stats import EngineStats
from repro.interp.config import Configuration
from repro.interp.explore import ConfigKey, _key_of, explore
from repro.interp.interpreter import InterpretedStep
from repro.interp.memory_model import MemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.lang.actions import Value, Var
from repro.lang.program import Program
from repro.verify.assertions import Assertion
from repro.verify.invariants import Invariant


def _pc_vector(config: Configuration) -> Tuple[int, ...]:
    return tuple(config.pc(t) for t in config.program.tids)


@dataclass
class ObligationFailure:
    """One failed proof obligation."""

    kind: str  # "initialisation" | "preservation"
    invariant: str
    step: Optional[InterpretedStep] = None

    def __str__(self) -> str:
        if self.step is None:
            return f"{self.kind} of {self.invariant} failed"
        label = str(self.step.event) if self.step.event is not None else "τ"
        pcs = "⟨{}⟩ → ⟨{}⟩".format(
            ",".join(map(str, _pc_vector(self.step.source))),
            ",".join(map(str, _pc_vector(self.step.target))),
        )
        return (
            f"{self.kind} of {self.invariant} failed across {label} "
            f"by thread {self.step.tid} at pc {pcs}"
        )


@dataclass
class OutlineReport:
    """Outcome of checking a proof outline."""

    configs: int = 0
    transitions: int = 0
    obligations_discharged: int = 0
    truncated: bool = False
    failures: List[ObligationFailure] = field(default_factory=list)
    #: per-invariant obligation counts: name -> (discharged, failed)
    per_invariant: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: how the discharging exploration ran
    strategy: str = "bfs"
    reduction: str = "none"
    #: the discharging exploration's engine statistics (key cache,
    #: phase timings, reduction counters) — what the parallel runner's
    #: verify jobs aggregate into the suite footer
    stats: EngineStats = field(default_factory=EngineStats)

    @property
    def proved(self) -> bool:
        return not self.failures

    def row(self) -> str:
        verdict = "OK" if self.proved else f"{self.failed_obligations} FAILED"
        bound = " (bounded)" if self.truncated else ""
        return (
            f"configs={self.configs} transitions={self.transitions} "
            f"obligations={self.obligations_discharged} {verdict}{bound}"
        )

    @property
    def failed_obligations(self) -> int:
        """Every failed obligation; ``failures`` keeps only the first
        ``keep_failures`` of them."""
        return sum(bad for _, bad in self.per_invariant.values())


class ProofOutline:
    """A collection of named, location-indexed assertions."""

    def __init__(self) -> None:
        self._invariants: List[Invariant] = []

    def everywhere(self, name: str, assertion: Assertion) -> "ProofOutline":
        """A global invariant (holds in every reachable configuration)."""
        self._invariants.append(Invariant(name, assertion))
        return self

    def at(
        self, name: str, pcs: Mapping[int, Sequence[int]], assertion: Assertion
    ) -> "ProofOutline":
        """An assertion guarded by program locations.

        ``pcs`` maps thread ids to the pc values at which the assertion
        must hold, e.g. ``{1: (5,), 2: (4, 5, 6)}`` reads "whenever
        thread 1 is at 5 and thread 2 in {4,5,6}".
        """
        from repro.verify.assertions import Implies, PCIn, all_of

        guard = all_of([PCIn(t, tuple(v)) for t, v in sorted(pcs.items())])
        self._invariants.append(Invariant(name, Implies(guard, assertion)))
        return self

    @property
    def invariants(self) -> Tuple[Invariant, ...]:
        return tuple(self._invariants)

    # ------------------------------------------------------------------

    def holds(self, config: Configuration) -> bool:
        return all(inv.holds(config) for inv in self._invariants)

    def check(
        self,
        program: Program,
        init_values: Mapping[Var, Value],
        model: Optional[MemoryModel] = None,
        max_events: Optional[int] = None,
        max_configs: Optional[int] = None,
        keep_failures: int = 10,
        strategy: str = "bfs",
        reduction: str = "none",
    ) -> OutlineReport:
        """Discharge initialisation + per-transition preservation.

        ``strategy`` and ``reduction`` are the engine's knobs.  Only the
        ``"sleep"`` reduction is admissible: it visits exactly the
        configurations the full search visits, so the proved/failed
        verdict is reduction-independent (obligation counts are not —
        pruned commutation-redundant transitions are simply not
        re-checked).  ``"optimal"`` prunes configurations, i.e. the very
        domain the obligations quantify over, and raises ``ValueError``
        here; callers wanting DPOR speed must fall back to ``"none"``
        (see ``python -m repro verify`` and DESIGN.md §10).
        """
        if reduction not in ("none", "sleep"):
            raise ValueError(
                f"reduction {reduction!r} prunes configurations; proof "
                "obligations quantify over every reachable transition, so "
                "only the configuration-identical 'sleep' tier (or 'none') "
                "is sound here — see DESIGN.md §10"
            )
        model = model if model is not None else RAMemoryModel()
        report = OutlineReport(strategy=strategy, reduction=reduction)
        invariants = tuple(self._invariants)
        names = [inv.name for inv in invariants]

        # Each distinct configuration's per-invariant results, evaluated
        # once and keyed like the explorer's visited set.  The vectors
        # are interned: nearly all of them are all-true.
        interned: Dict[Tuple[bool, ...], Tuple[bool, ...]] = {}
        holds_all = (True,) * len(invariants)
        interned[holds_all] = holds_all
        vectors: Dict[ConfigKey, Tuple[bool, ...]] = {}
        # obligation sets per outcome vector, folded after the search:
        # the initial configuration's, then one per checked transition
        landed: Dict[Tuple[bool, ...], int] = {}

        def evaluate(config: Configuration) -> Tuple[bool, ...]:
            vector = tuple([inv.holds(config) for inv in invariants])
            return interned.setdefault(vector, vector)

        def vector_of(config: Configuration) -> Tuple[bool, ...]:
            key = _key_of(config, model)
            vector = vectors.get(key)
            if vector is None:
                vector = vectors[key] = evaluate(config)
            return vector

        # Not memoized: the search may run a lowered copy of the
        # program, whose configurations key differently.
        initial = Configuration(program, model.initial(init_values))
        vector = evaluate(initial)
        landed[vector] = 1
        for inv, ok in zip(invariants, vector):
            if not ok:
                report.failures.append(
                    ObligationFailure("initialisation", inv.name)
                )

        def on_step(step: InterpretedStep) -> List[str]:
            if vector_of(step.source) is not holds_all:
                return []  # vacuous: source outside the outline
            vector = vector_of(step.target)
            landed[vector] = landed.get(vector, 0) + 1
            if vector is not holds_all:
                for inv, ok in zip(invariants, vector):
                    if not ok and len(report.failures) < keep_failures:
                        report.failures.append(
                            ObligationFailure("preservation", inv.name, step)
                        )
            return []

        result = explore(
            program,
            init_values,
            model,
            max_events=max_events,
            max_configs=max_configs,
            check_step=on_step,
            strategy=strategy,
            reduction=reduction,
        )
        report.configs = result.configs
        report.transitions = result.transitions
        report.truncated = result.truncated
        report.stats = result.stats
        for vector, n in landed.items():
            for name, ok in zip(names, vector):
                good, bad = report.per_invariant.get(name, (0, 0))
                report.per_invariant[name] = (
                    (good + n, bad) if ok else (good, bad + n)
                )
            report.obligations_discharged += n * len(vector)

        from repro.obs.trace import tracer

        tr = tracer()
        if tr is not None:
            tr.emit(
                "outline",
                name=", ".join(inv.name for inv in self._invariants[:4])
                + ("..." if len(self._invariants) > 4 else ""),
                model=getattr(model, "name", type(model).__name__),
                obligations=report.obligations_discharged,
                failed=report.failed_obligations,
            )
        return report


def peterson_outline() -> ProofOutline:
    """The paper's Peterson proof as a proof outline (Section 5.2)."""
    from repro.casestudies.peterson import FLAG, TURN, TRUE, FALSE
    from repro.verify.assertions import DV, Or, UpdateOnly, VO

    outline = ProofOutline()
    outline.everywhere("(4) turn update-only", UpdateOnly(TURN))
    outline.everywhere("(5) turn =1 2 ∨ turn =2 1", Or(DV(TURN, 1, 2), DV(TURN, 2, 1)))
    for t in (1, 2):
        other = 3 - t
        outline.at(
            f"(6) t{t}", {t: (3, 4, 5, 6)}, DV(FLAG[t], t, TRUE)
        )
        outline.at(
            f"(7) t{t}", {t: (4, 5, 6)}, VO(FLAG[t], TURN)
        )
        outline.at(
            f"(8) t{t}",
            {t: (4, 5, 6), other: (4, 5, 6)},
            Or(DV(FLAG[other], t, TRUE), DV(TURN, other, t)),
        )
        outline.at(
            f"(9) t{t}", {t: (5,), other: (4, 5, 6)}, DV(TURN, other, t)
        )
        outline.at(f"(10) t{t}", {t: (2,)}, DV(FLAG[t], t, FALSE))
    return outline

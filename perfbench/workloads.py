"""The benchmark's workloads: how each builds its input, reaches a
verdict, and is checked against its committed answer.

Every workload goes through the public ``repro`` API only.  A workload
exposes three steps, timed separately by ``rep.py``:

* ``build(seed, rep)`` -- make the input (the program, its model and,
  for the proof, its outline).  Runs inside ``setup_s``.
* ``verdict(inp)`` -- run the search and return an *answer*: the verdict
  plus the counts the expected answer pins.  Runs inside ``verdict_s``.
* ``check(answer, expected)`` -- the list of disagreements with the
  committed answer (empty when the verdict is right).

The search sizes below were chosen so one verdict takes about 1 s on
a 2-core host, which fits twenty or more fresh-process repetitions
into one timed run; a ``fuzz`` verdict takes 4-5 s, most of it the
cold candidate-space memo every fresh process builds once.
``expected.json`` records each workload's parameters next to its
answer, and ``check`` refuses an answer computed under other
parameters, so a bound changed here without a new answer fails loudly.
"""

from __future__ import annotations

from typing import Dict, List


class Workload:
    name = ""
    #: verdicts one repetition attempts (``fuzz``: one per program)
    verdicts = 1
    params: Dict[str, int] = {}

    def build(self, seed: int, rep: int):
        raise NotImplementedError

    def verdict(self, inp) -> dict:
        raise NotImplementedError

    def failed(self, answer: dict, problems: List[str]) -> int:
        """Verdicts of this repetition that count as failed, given the
        disagreements ``check`` found."""
        return self.verdicts if problems else 0

    def check(self, answer: dict, expected: dict) -> List[str]:
        problems = []
        if expected.get("params") != self.params:
            problems.append(
                f"expected.json answers params {expected.get('params')}, "
                f"the workload runs {self.params}"
            )
        for key, want in expected["answer"].items():
            if answer.get(key) != want:
                problems.append(f"{key}: got {answer.get(key)!r}, expected {want!r}")
        return problems


def _search_answer(result) -> dict:
    stats = result.stats
    return {
        "configs": result.configs,
        "transitions": result.transitions,
        "terminal": len(result.terminal),
        "truncated": result.truncated,
        "violations": len(result.violations),
        "expanded": stats.expanded,
        "pruned": stats.pruned,
        "races": stats.races,
    }


class Ring4(Workload):
    """``token_ring_program(4)`` under RA, BFS, no reduction."""

    name = "ring4"
    params = {"threads": 4, "max_events": 9}

    def build(self, seed, rep):
        from repro.casestudies.token_ring import (
            TOKEN_INIT,
            token_ring_program,
            token_ring_violations,
        )
        from repro.interp.ra_model import RAMemoryModel

        program = token_ring_program(self.params["threads"])
        return program, TOKEN_INIT, RAMemoryModel(), token_ring_violations

    def verdict(self, inp):
        from repro.engine import explore

        program, init, model, hook = inp
        result = explore(
            program, init, model,
            max_events=self.params["max_events"], check_config=hook,
        )
        return _search_answer(result)


class PetersonProof(Workload):
    """The paper's Section 5.2 proof outline, checked under RA."""

    name = "peterson-proof"
    params = {"max_events": 15}

    def build(self, seed, rep):
        from repro.casestudies.peterson import PETERSON_INIT, peterson_program
        from repro.interp.ra_model import RAMemoryModel
        from repro.verify.outline import peterson_outline

        return peterson_outline(), peterson_program(), PETERSON_INIT, RAMemoryModel()

    def verdict(self, inp):
        outline, program, init, model = inp
        report = outline.check(
            program, init, model, max_events=self.params["max_events"]
        )
        return {
            "proved": report.proved,
            "configs": report.configs,
            "transitions": report.transitions,
            "obligations": report.obligations_discharged,
            "truncated": report.truncated,
        }


class PetersonPor(Workload):
    """Looping Peterson under RA with the parsimonious (``optimal``)
    race-reversal reduction and the mutual-exclusion hook."""

    name = "peterson-por"
    params = {"max_events": 19}

    def build(self, seed, rep):
        from repro.casestudies.peterson import (
            PETERSON_INIT,
            mutual_exclusion_violations,
            peterson_program,
        )
        from repro.interp.ra_model import RAMemoryModel

        return (
            peterson_program(), PETERSON_INIT, RAMemoryModel(),
            mutual_exclusion_violations,
        )

    def verdict(self, inp):
        from repro.engine import explore

        program, init, model, hook = inp
        result = explore(
            program, init, model, max_events=self.params["max_events"],
            reduction="optimal", check_config=hook,
        )
        return _search_answer(result)


class Fuzz(Workload):
    """A differential fuzz campaign with the default oracles.

    Every repetition checks the same campaign, ``repro fuzz``'s default
    seed 0, whatever the workload seed.  Campaigns differ in cost: over
    twelve seeds the spread (interquartile range over median) of one
    cold 40-program campaign's verdict time was 0.14, as wide as the
    host's own drift, so a seeded campaign made the figures a property
    of the seed rather than of the code.  Twenty programs keep the
    repetition near 4 s, so a run holds six or more of them; the cold
    candidate-space memo, which every campaign builds, is most of it.
    """

    name = "fuzz"
    params = {"campaign": 0, "iters": 20}
    verdicts = params["iters"]

    def build(self, seed, rep):
        import repro.fuzz.runner  # noqa: F401  (import cost is setup)

        return self.params["campaign"]

    def verdict(self, campaign_seed):
        from repro.fuzz.runner import run_campaign

        report = run_campaign(
            seed=campaign_seed, iters=self.params["iters"], jobs=1
        )
        return {
            "campaign_seed": campaign_seed,
            "divergences": len(report.divergences),
            "inconclusive": report.inconclusive,
            "configs": report.configs,
            "transitions": report.transitions,
            "expanded": report.expanded,
            "pruned": report.pruned,
            "races": report.races,
        }

    def failed(self, answer, problems):
        # each diverging or inconclusive program is one failed verdict
        bad = answer["divergences"] + answer["inconclusive"]
        if problems and not bad:
            return self.verdicts
        return min(self.verdicts, bad)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Ring4(), PetersonProof(), PetersonPor(), Fuzz())
}

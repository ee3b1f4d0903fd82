"""E13 — spill identity and checkpoint overhead.

The file keeps its historical name: it also measured the sharded
search's speedup until that search was removed (DESIGN.md §15).

**Spill identity** — the 4-thread token ring at bound 14 estimates
~700 MB of in-memory visited-set footprint, over the default 512 MB
budget; run under ``--spill`` it must overflow to disk exactly once
and still report byte-identical results (configs, transitions,
violations) to the unbudgeted in-memory run.

**Checkpoint overhead** — stalled Peterson explored with and without
periodic checkpointing (DESIGN.md §16).  A per-configuration check hook
sleeps a *spin-calibrated* stall, modelling an expensive per-state
check.  Snapshot cost is paid per cadence interval, so it amortises
exactly when per-state work dominates — the long-run regime
checkpointing exists for.  The checkpointed run must stay within 5% of
the plain one (gated hard in ``benchmarks/check_regression.py``) while
actually writing snapshots, and must report byte-identical results.

Records land in ``--bench-json`` as ``BENCH_e13_sharded.json``.
"""

import time

from conftest import once, table
from repro.casestudies.peterson import PETERSON_INIT, peterson_program
from repro.casestudies.token_ring import (
    TOKEN_INIT,
    token_ring_program,
    token_ring_violations,
)
from repro.engine.calibrate import spin_score
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.litmus.registry import final_values

#: Peterson exploration bound for the checkpoint pair (934 configs
#: under RA).
BOUND = 14

#: The default in-memory visited budget the spill run must exceed.
SPILL_BUDGET = 512 * 1024 * 1024

#: Token-ring size for the spill run: 4 threads at bound 14 visit
#: ~172k configurations whose estimated in-memory footprint crosses
#: the 512 MB budget mid-run.
RING_THREADS = 4
RING_BOUND = 14

#: Set per session from ``spin_score`` before the pair runs.
_STALL = 0.0


def _stalling_check(config):
    time.sleep(_STALL)
    return []


def _outcome_set(result):
    """The byte-comparable terminal outcome set of an exploration."""
    return sorted(
        {tuple(sorted(final_values(c).items())) for c in result.terminal}
    )


def test_spill_identity_under_budget(benchmark, bench_json, tmp_path):
    program = token_ring_program(n_threads=RING_THREADS)

    def run_pair():
        t0 = time.perf_counter()
        plain = explore(
            program, TOKEN_INIT, RAMemoryModel(), max_events=RING_BOUND,
            check_config=token_ring_violations,
        )
        wall_plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        spilled = explore(
            program, TOKEN_INIT, RAMemoryModel(), max_events=RING_BOUND,
            check_config=token_ring_violations,
            spill_dir=str(tmp_path / "spill"), spill_max_bytes=SPILL_BUDGET,
        )
        wall_spill = time.perf_counter() - t0
        return plain, wall_plain, spilled, wall_spill

    plain, wall_plain, spilled, wall_spill = once(benchmark, run_pair)
    # the run must genuinely exceed the in-memory budget...
    assert spilled.stats.spills == 1
    assert spilled.stats.spilled_keys == spilled.configs
    # ...and spilling must not change a single observable
    assert spilled.configs == plain.configs
    assert spilled.transitions == plain.transitions
    assert _outcome_set(spilled) == _outcome_set(plain)
    assert [str(v) for v in spilled.violations] == [
        str(v) for v in plain.violations
    ]
    table(
        f"E13: token ring ({RING_THREADS} threads) bound {RING_BOUND}, "
        f"512MB visited budget",
        [
            f"in-memory: {wall_plain:6.1f}s  configs={plain.configs}",
            f"spilled:   {wall_spill:6.1f}s  "
            f"spilled_keys={spilled.stats.spilled_keys} "
            f"(identical verdicts: {len(spilled.violations)} violations)",
        ],
    )
    bench_json.record("e13_spill", {
        "threads": RING_THREADS,
        "bound": RING_BOUND,
        "budget_bytes": SPILL_BUDGET,
        "configs": spilled.configs,
        "transitions": spilled.transitions,
        "spills": spilled.stats.spills,
        "spilled_keys": spilled.stats.spilled_keys,
        "wall_s_inmem": wall_plain,
        "wall_s_spill": wall_spill,
        "violations": len(spilled.violations),
        "identical": True,
    })


#: Per-configuration stall for the checkpoint pair, in millions of
#: spin-loop iterations (~2.5 ms) — small enough that the pair stays
#: under ~10 s, large enough that per-state work dominates, which is
#: the regime checkpointing is built for.
CKPT_STALL_MSPIN = 0.05

#: Snapshot cadence: two checkpoints over Peterson's 934 configs at
#: ``BOUND``.
CKPT_EVERY = 400

#: Best-of-N for each side of the pair (walls, not configs, vary).
CKPT_REPS = 2


def test_checkpoint_overhead(benchmark, bench_json, tmp_path):
    global _STALL
    score = spin_score()
    _STALL = CKPT_STALL_MSPIN * 1e6 / score
    program = peterson_program(once=True)
    ckpt = str(tmp_path / "e13.ckpt")

    def run_pair():
        def one(**kw):
            t0 = time.perf_counter()
            result = explore(
                program, PETERSON_INIT, RAMemoryModel(),
                max_events=BOUND, check_config=_stalling_check, **kw,
            )
            return time.perf_counter() - t0, result

        wall_off, plain = one()
        wall_on, checked = one(checkpoint=ckpt, checkpoint_every=CKPT_EVERY)
        for _ in range(CKPT_REPS - 1):
            wall_off = min(wall_off, one()[0])
            wall_on = min(
                wall_on,
                one(checkpoint=ckpt, checkpoint_every=CKPT_EVERY)[0],
            )
        return plain, wall_off, checked, wall_on

    plain, wall_off, checked, wall_on = once(benchmark, run_pair)
    # snapshots must actually land, and must not change a single
    # observable
    assert checked.stats.checkpoints >= 1
    assert checked.configs == plain.configs
    assert checked.transitions == plain.transitions
    assert _outcome_set(checked) == _outcome_set(plain)
    ratio = wall_on / wall_off
    table(
        f"E13: Peterson bound {BOUND}, stalled check, "
        f"checkpoint every {CKPT_EVERY} configs",
        [
            f"checkpoint off: {wall_off:6.2f}s",
            f"checkpoint on:  {wall_on:6.2f}s  "
            f"overhead={100.0 * (ratio - 1.0):+.1f}% "
            f"({checked.stats.checkpoints} snapshot(s))",
        ],
    )
    benchmark.extra_info["overhead_ratio"] = ratio
    bench_json.record("e13_checkpoint", {
        "bound": BOUND,
        "stall_mspin": CKPT_STALL_MSPIN,
        "spin_score": score,
        "checkpoint_every": CKPT_EVERY,
        "checkpoints": checked.stats.checkpoints,
        "configs": checked.configs,
        "wall_s_off": wall_off,
        "wall_s_on": wall_on,
        "overhead_ratio": ratio,
        "identical": True,
    })

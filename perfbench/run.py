"""The repository benchmark: verdict workloads, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload ring4 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # every workload

Each repetition runs in a fresh interpreter (``rep.py``) with the A/B
switches, fault plans and trace bus scrubbed from its environment and
the run ledger off, so the measured program is the default one and
process-global memos start cold.  Repetitions are started while the
next one is due to end within half a repetition of ``--seconds`` (at
least ``MIN_REPS``), and every repetition's verdict is checked against
``expected.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` over
the repetitions: the upper quartile of ``verdict_s`` and the medians of
``setup_s`` and ``peak_rss_mb``.  ``failed_share`` (failed / attempted
verdicts) is printed with them and is what the result's
``attempted``/``failed`` carry.

``--trace 1`` alternates untraced and traced repetitions of the same
input and reports the per-layer metrics (see ``layers.py``) of the
traced repetition with the median traced verdict time, plus the
tracing overhead against the untraced median.  The traced run fails
when a traced verdict or count differs from its untraced twin, when a
layer reports no calls on a workload it is heavy on, when what the
wrappers counted disagrees with the run's ``EngineStats``, or when the
self times do not add up to the traced verdict time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from layers import SPAN_LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: environment switches that would change the measured program
SCRUBBED_ENV = (
    "REPRO_NO_LOWER",
    "REPRO_NO_COMPACT",
    "REPRO_FAULTS",
    "REPRO_TRACE",
    "REPRO_TRACE_SAMPLE",
)
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
#: a single-workload run must end within this many seconds
RUN_LIMIT_S = 170.0

#: layer -> workloads it is heavy on; each must report calls there
HEAVY = {
    "interp.interpreter": ("ring4", "peterson-proof", "peterson-por", "fuzz"),
    "interp.memory_model": ("ring4", "peterson-proof", "peterson-por", "fuzz"),
    "c11.compact": ("ring4", "peterson-proof", "peterson-por"),
    "engine.keys": ("ring4", "peterson-proof", "peterson-por", "fuzz"),
    "engine.frontier": ("ring4", "peterson-proof", "fuzz"),
    "hooks": ("ring4", "peterson-proof", "peterson-por"),
    "verify.assertions": ("peterson-proof",),
    "engine.por": ("peterson-por", "fuzz"),
    "engine.por.deps": ("peterson-por", "fuzz"),
    "interp.compiled": ("ring4", "peterson-proof", "peterson-por", "fuzz"),
    "axiomatic.validity": ("fuzz",),
    "axiomatic.candidates": ("fuzz",),
    "axiomatic.equivalence": ("fuzz",),
    "relations": ("fuzz",),
    "fuzz.generator": ("fuzz",),
    "fuzz.oracles": ("fuzz",),
}
#: the collector is heavy where the visited set is large
GC_HEAVY = ("ring4", "peterson-por")


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["REPRO_NO_LEDGER"] = "1"
    env["PYTHONPATH"] = SRC
    return env


def _run_child(argv, timeout: float):
    """Run a child to completion; (stdout, error or None)."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "", f"time limit of {timeout:.0f} s hit"
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        return out, f"exit code {proc.returncode}: {err.strip()[-2000:]}"
    return out, None


def _prepare() -> dict:
    """Compile the sources once (untimed) and record provenance."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"benchmark: no repro package under {SRC}")
    code = (
        "import compileall, json, sys;"
        "ok = compileall.compile_dir(sys.argv[1], quiet=1);"
        "from repro.engine.calibrate import spin_score;"
        "print(json.dumps({'ok': bool(ok), 'spin_score': spin_score()}))"
    )
    out, error = _run_child(
        [sys.executable, "-c", code, os.path.join(SRC, "repro")], 300
    )
    if error is not None:
        sys.exit(f"benchmark: preparing the sources failed: {error}")
    prep = json.loads(out.strip().splitlines()[-1])
    if not prep["ok"]:
        sys.exit("benchmark: the sources do not compile")
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "spin_score": prep["spin_score"],
    }


def _git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _one_rep(name: str, seed: int, rep: int, trace: int, timeout: float) -> dict:
    workload = WORKLOADS[name]
    argv = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", name, "--seed", str(seed), "--rep", str(rep),
        "--trace", str(trace),
    ]
    spawned = time.monotonic()
    out, error = _run_child(argv + ["--spawned", repr(spawned)], timeout)
    if error is None:
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            error = "no result line"
    return {
        "verdicts": workload.verdicts, "failed": workload.verdicts,
        "problems": [f"repetition {rep} (trace={trace}) failed: {error}"],
    }


def _upper_quartile(values) -> float:
    """The third quartile of a run's verdict times.

    On a shared host, spells when neighbours idle speed up some
    repetitions; how much of a run they cover moves its median from run
    to run more than it moves the slower quarter, which tracks the
    usual, contended speed of the host.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[2]


def _describe(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def _trace_checks(name: str, untraced: dict, traced: dict) -> list:
    """Why a traced repetition cannot be trusted (empty when it can)."""
    problems = list(traced.get("trace_problems", []))
    if traced.get("answer") != untraced.get("answer"):
        problems.append(
            f"traced answer {traced.get('answer')} differs from untraced "
            f"{untraced.get('answer')}"
        )
    layers = traced["layers"]
    for layer, heavy in HEAVY.items():
        if name in heavy and layers[f"{layer}.calls"] <= 0:
            problems.append(f"layer {layer} reports no calls on {name}")
    if name in GC_HEAVY and layers["runtime.gc.collections"] <= 0:
        problems.append(f"runtime.gc reports no collections on {name}")
    total = layers["engine.core.self_s"] + layers["runtime.gc.self_s"] + sum(
        layers[f"{layer}.self_s"] for layer in SPAN_LAYERS
    )
    if abs(total - layers["trace.verdict_s"]) > 1e-6 * max(1.0, total):
        problems.append(
            f"self times add up to {total}, traced verdict took "
            f"{layers['trace.verdict_s']}"
        )
    return problems


def run_workload(name: str, seed: int, seconds: int, trace: int, spec: dict):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    started = time.monotonic()
    limit = started + RUN_LIMIT_S
    untraced, pairs, problems, rounds = [], [], [], []
    rep = 0
    while True:
        now = time.monotonic()
        done = len(pairs) >= MIN_TRACED_PAIRS if trace else len(untraced) >= MIN_REPS
        # start another round only if it is due to end, on the median
        # round so far, within half a round of ``seconds``
        ahead = statistics.median(rounds) / 2 if rounds else 0.0
        if (now + ahead - started >= seconds and done) or now >= limit:
            break
        first = _one_rep(name, seed, rep, 0, limit - now)
        untraced.append(first)
        if trace:
            second = _one_rep(name, seed, rep, 1, max(1.0, limit - time.monotonic()))
            if "layers" in second and "verdict_s" in first:
                second["problems"] = second["problems"] + _trace_checks(
                    name, first, second
                )
                if second["problems"]:
                    second["failed"] = second["verdicts"]
            pairs.append((first, second))
        rounds.append(time.monotonic() - now)
        rep += 1

    results = untraced + [second for _, second in pairs]
    attempted = sum(r["verdicts"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        problems.extend(r["problems"])
    for problem in problems:
        print(f"# {name}: {problem}", file=sys.stderr)

    timed = [r for r in untraced if "verdict_s" in r]
    if not timed:
        return False, attempted, failed, None
    verdicts = [r["verdict_s"] for r in timed]
    setups = [r["setup_s"] for r in timed]
    rss = [r["peak_rss_mb"] for r in timed]
    verdict_q3 = _upper_quartile(verdicts)
    print(f"{name} verdict_s {verdict_q3:.4f} s (upper quartile; "
          f"median {statistics.median(verdicts):.4f} s; {_describe(verdicts)})")
    print(f"{name} setup_s {statistics.median(setups):.4f} s ({_describe(setups)})")
    print(f"{name} peak_rss_mb {statistics.median(rss):.2f} MB ({_describe(rss)})")
    print(f"{name} failed_share {failed / attempted:.4f} ratio ({failed}/{attempted})")

    if not trace:
        metrics = {
            "verdict_s": verdict_q3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }
    else:
        traced = [second for _, second in pairs if "layers" in second]
        if not traced:
            return False, attempted, failed, None
        traced.sort(key=lambda r: r["layers"]["trace.verdict_s"])
        layers = dict(traced[(len(traced) - 1) // 2]["layers"])
        layers["trace.overhead_s"] = layers["trace.verdict_s"] - statistics.median(verdicts)
        _print_layers(name, layers, len(traced))
        metrics = layers
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for entry in wanted:
        if entry["name"] not in metrics:
            print(f"# {name}: metric {entry['name']} was not measured", file=sys.stderr)
            return False, attempted, failed, None
        out[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
    correct = failed == 0 and not problems
    return correct, attempted, failed, out


def _print_layers(name: str, layers: dict, n: int) -> None:
    total = layers["trace.verdict_s"]
    print(f"{name} per-layer split of the median traced verdict "
          f"({total:.4f} s; {n} traced repetitions; tracing overhead "
          f"{layers['trace.overhead_s']:+.4f} s)")
    print(f"  {'layer':<24}{'calls':>10}{'self_s':>10}{'share':>8}  extra")
    rows = list(SPAN_LAYERS) + ["runtime.gc", "engine.core"]
    for layer in rows:
        calls = layers.get(f"{layer}.calls", layers.get(f"{layer}.collections", ""))
        self_s = layers[f"{layer}.self_s"]
        extra = " ".join(
            f"{key[len(layer) + 1:]}={_fmt(value)}"
            for key, value in layers.items()
            if key.startswith(layer + ".")
            and key.count(".") == layer.count(".") + 1
            and not key.endswith((".calls", ".collections", ".self_s", ".share"))
        )
        print(f"  {layer:<24}{calls!s:>10}{self_s:>10.4f}"
              f"{100.0 * self_s / total if total else 0.0:>7.1f}%  {extra}")
    visited = " ".join(
        f"{key[len('engine.visited.'):]}={_fmt(value)}"
        for key, value in layers.items() if key.startswith("engine.visited.")
    )
    print(f"  {'engine.visited':<24}{'':>10}{'':>10}{'':>8}  {visited}")


def _fmt(value) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(SPEC) as fh:
        spec = json.load(fh)
    provenance = _prepare()
    provenance["seed"] = args.seed
    print("# provenance " + json.dumps(provenance, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, bad, out = run_workload(
            name, args.seed, args.seconds, args.trace, spec
        )
        if out is None:
            sys.exit(f"benchmark: workload {name} produced no measurement")
        correct = correct and ok
        attempted += tried
        failed += bad
        if len(names) == 1:
            metrics = out
        else:
            metrics.update({f"{name}.{key}": value for key, value in out.items()})
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

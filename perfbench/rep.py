"""One timed repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so process-global
memos (the canonical-key cache, the fuzz candidate-space memo, interned
footprints) start cold, the way one CLI invocation pays them.  It
prints one JSON object as its last line:

* ``setup_s`` -- from the parent's spawn time (``--spawned``, a
  ``time.monotonic()`` reading, which is system-wide on Linux) to the
  built input: interpreter start, importing ``repro``, building the
  program (and outline);
* ``verdict_s`` -- from the built input to the checked verdict;
* ``peak_rss_mb`` -- this process's ``ru_maxrss``;
* the answer, the disagreements with the committed answer, and, with
  ``--trace 1``, the per-layer metrics of :mod:`layers`.

Usage: ``python perfbench/rep.py --workload ring4 --seed 0 --rep 0
--trace 0 --spawned <monotonic seconds>``, with ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
import traceback

from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "expected.json")) as fh:
        expected = json.load(fh)[workload.name]

    inp = workload.build(args.seed, args.rep)
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.trace:
        from layers import Tracer, install

        tracer = Tracer()
        install(tracer)
        tracer.start()
    t0 = time.perf_counter()
    try:
        answer = workload.verdict(inp)
        problems = workload.check(answer, expected)
    except Exception:  # the verdict raised: report it as a failed verdict
        answer, problems = {}, ["raised: " + traceback.format_exc()]
    verdict_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.stop()
    out = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "answer": answer,
        "problems": problems,
        "verdicts": workload.verdicts,
        "failed": workload.failed(answer, problems) if answer else workload.verdicts,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["verify.assertions.obligations"] = answer.get("obligations", 0)
        layers["trace.verdict_s"] = tracer.verdict_s
        out["layers"] = layers
        out["trace_problems"] = tracer.problems
    print(json.dumps(out))


if __name__ == "__main__":
    main()

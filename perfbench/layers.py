"""Per-layer spans for the traced benchmark run.

The traced run wraps the public functions of each ``repro`` layer from
outside -- no code under ``src/`` knows it is being measured -- and
keeps, per layer, a call count and a *self time*: span time minus the
time covered by child spans.  Collector pauses (``gc.callbacks``) are
charged to ``runtime.gc`` and subtracted from the span they interrupt.
The whole verdict is one root span owned by ``engine.core``, so the
self times of all layers add up to the traced verdict time exactly:
``engine.core`` is whatever no wrapped layer claimed (the search loop,
visited-set operations, parent map, hook plumbing).

A function imported by name into another module keeps pointing at the
original, so :func:`_rebind` swaps every ``repro`` module attribute
that *is* the original.  A layer that still reports zero calls on the
workload it is heavy on means a wrapper missed its target; ``run.py``
fails the run in that case instead of printing a silent zero.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter

#: every layer with a span, in report order; ``engine.core`` is the root
SPAN_LAYERS = (
    "interp.interpreter",
    "interp.memory_model",
    "c11.compact",
    "engine.keys",
    "engine.frontier",
    "hooks",
    "verify.assertions",
    "engine.por",
    "engine.por.deps",
    "interp.compiled",
    "axiomatic.validity",
    "axiomatic.candidates",
    "axiomatic.equivalence",
    "relations",
    "fuzz.generator",
    "fuzz.oracles",
)


class _Acc:
    __slots__ = ("calls", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.depth = 0


class _SearchRecord:
    """What the wrappers saw during one ``explore`` call."""

    __slots__ = ("pushes", "peak", "hits", "misses", "lookups", "expansions")

    def __init__(self) -> None:
        self.pushes = 0
        self.peak = 0
        self.hits = 0
        self.misses = 0
        self.lookups = 0
        self.expansions = 0


class Tracer:
    def __init__(self) -> None:
        self.acc: Dict[str, _Acc] = {name: _Acc() for name in SPAN_LAYERS}
        #: child-time accumulators of the open spans; [0] is the root
        self._stack: List[List[float]] = [[0.0]]
        self._searches: List[_SearchRecord] = []
        self._gc_t0: Optional[float] = None
        self.gc_s = 0.0
        self.gc_collections = 0
        self.gc_gen2 = 0
        self.transitions_out = 0
        self.candidates_yielded = 0
        self.key_hits = 0
        self.key_misses = 0
        self.frontier_peak = 0
        self.visited_lookups = 0
        self.visited_inserts = 0
        self.configs = 0
        self.transitions = 0
        self.expanded = 0
        self.pruned = 0
        self.races = 0
        #: disagreements between what the wrappers saw and EngineStats
        self.problems: List[str] = []
        self.verdict_s = 0.0
        self.core_self_s = 0.0

    # -- spans ---------------------------------------------------------

    def span(self, layer: str, fn: Callable, post: Optional[Callable] = None):
        """Wrap ``fn`` in a span of ``layer``; ``post(args, result, nested)``
        runs after each call, ``nested`` telling whether the call sat
        inside another span of the same layer."""
        acc = self.acc[layer]
        stack = self._stack
        clock = _clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            acc.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                acc.depth -= 1
                stack[-1][0] += elapsed
                acc.calls += 1
                acc.self_s += elapsed - frame[0]
            if post is not None:
                post(args, result, acc.depth > 0)
            return result

        return wrapper

    def gen_span(self, layer: str, fn: Callable, per_item: Optional[Callable] = None):
        """Wrap a generator function: one call per invocation, and every
        resumption timed as a span.  ``per_item(nested)`` runs per item."""
        acc = self.acc[layer]
        stack = self._stack
        clock = _clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc.calls += 1
            return _drive(fn(*args, **kwargs))

        def _drive(it):
            while True:
                frame = [0.0]
                stack.append(frame)
                acc.depth += 1
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - t0
                    stack.pop()
                    acc.depth -= 1
                    stack[-1][0] += elapsed
                    acc.self_s += elapsed - frame[0]
                if per_item is not None:
                    per_item(acc.depth > 0)
                yield item

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = _clock()
            return
        if self._gc_t0 is None:
            return
        dt = _clock() - self._gc_t0
        self._gc_t0 = None
        self.gc_s += dt
        self.gc_collections += 1
        if info.get("generation") == 2:
            self.gc_gen2 += 1
        self._stack[-1][0] += dt

    # -- the root span ---------------------------------------------------

    def start(self) -> None:
        self._stack[:] = [[0.0]]
        gc.callbacks.append(self._on_gc)
        self._t_root = _clock()

    def stop(self) -> None:
        self.verdict_s = _clock() - self._t_root
        gc.callbacks.remove(self._on_gc)
        self.core_self_s = self.verdict_s - self._stack[0][0]

    # -- per-search bookkeeping -------------------------------------------

    def _search(self) -> Optional[_SearchRecord]:
        return self._searches[-1] if self._searches else None

    def wrap_explore(self, fn: Callable) -> Callable:
        """``explore`` itself gets no span of its own: the search loop is
        ``engine.core``.  The wrapper times the hooks passed to it and
        cross-checks what the layer wrappers saw against the run's own
        :class:`~repro.engine.stats.EngineStats`."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def explore(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            call = bound.arguments
            for hook in ("check_config", "check_step"):
                if call[hook] is not None:
                    call[hook] = self.span("hooks", call[hook])
            record = _SearchRecord()
            self._searches.append(record)
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                self._searches.pop()
            self._account(record, result, call)
            return result

        return explore

    def _account(self, record: _SearchRecord, result, call: dict) -> None:
        stats = result.stats
        self.configs += result.configs
        self.transitions += result.transitions
        self.expanded += stats.expanded
        self.pruned += stats.pruned
        self.races += stats.races
        self.visited_lookups += record.lookups
        self.visited_inserts += result.configs
        self.frontier_peak = max(self.frontier_peak, record.peak)
        where = f"explore(reduction={call['reduction']}, model={type(call['model']).__name__})"
        if (record.hits, record.misses) != (stats.key_hits, stats.key_misses):
            self.problems.append(
                f"{where}: keys layer saw {record.hits}/{record.misses} "
                f"hits/misses, EngineStats {stats.key_hits}/{stats.key_misses}"
            )
        if record.pushes and record.peak != stats.peak_frontier:
            self.problems.append(
                f"{where}: frontier peak {record.peak}, "
                f"EngineStats {stats.peak_frontier}"
            )
        if call["reduction"] != "none" and record.expansions != stats.expanded:
            self.problems.append(
                f"{where}: {record.expansions} thread expansions, "
                f"EngineStats expanded={stats.expanded}"
            )

    # -- report ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        total = self.verdict_s
        for name, acc in self.acc.items():
            out[f"{name}.calls"] = acc.calls
            out[f"{name}.self_s"] = acc.self_s
            out[f"{name}.share"] = acc.self_s / total
        keyed = self.key_hits + self.key_misses
        looked = self.visited_lookups
        out.update({
            "interp.memory_model.transitions_out": self.transitions_out,
            "engine.keys.hit_ratio": self.key_hits / keyed if keyed else 0.0,
            "engine.visited.lookups": looked,
            "engine.visited.inserts": self.visited_inserts,
            "engine.visited.dup_ratio": (
                1.0 - self.visited_inserts / looked if looked else 0.0
            ),
            "engine.frontier.peak": self.frontier_peak,
            "engine.por.expanded": self.expanded,
            "engine.por.pruned": self.pruned,
            "engine.por.prune_ratio": (
                self.pruned / (self.expanded + self.pruned)
                if self.expanded + self.pruned else 0.0
            ),
            "engine.por.races": self.races,
            "axiomatic.candidates.yielded": self.candidates_yielded,
            "runtime.gc.collections": self.gc_collections,
            "runtime.gc.gen2": self.gc_gen2,
            "runtime.gc.self_s": self.gc_s,
            "runtime.gc.share": self.gc_s / total,
            "engine.core.self_s": self.core_self_s,
            "engine.core.share": self.core_self_s / total,
            "engine.core.configs": self.configs,
            "engine.core.transitions": self.transitions,
        })
        return out


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module attribute that is ``original``
    at ``replacement``; modules imported later bind the replacement."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(module, attr: str, make: Callable) -> None:
    original = getattr(module, attr)
    _rebind(original, make(original))


def _patch_method(cls, attr: str, make: Callable) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


def install(tracer: Tracer) -> None:
    """Wrap every measured layer of the already-importable ``repro``."""
    import repro.axiomatic.candidates as candidates
    import repro.axiomatic.equivalence as equivalence
    import repro.axiomatic.validity as validity
    import repro.engine.core as core
    import repro.engine.frontier as frontier
    import repro.engine.por as por
    import repro.engine.por.deps as deps
    import repro.fuzz.generator as generator
    import repro.fuzz.oracles as oracles
    import repro.interp.compiled as compiled
    import repro.interp.interpreter as interpreter
    import repro.relations.closure as closure
    from repro.c11.compact import CompactOrders
    from repro.interp.memory_model import MemoryModel
    from repro.interp.ra_model import RAMemoryModel
    from repro.interp.sc import SCMemoryModel
    from repro.interp.sra_model import SRAMemoryModel
    from repro.relations.relation import Relation
    from repro.verify.invariants import Invariant

    t = tracer
    span = t.span

    # interp.interpreter: whole-configuration and per-thread expansion;
    # a per-thread expansion inside a reduced search is one EngineStats
    # "expanded" thread-expansion
    def count_expansion(args, result, nested):
        search = t._search()
        if search is not None and not nested:
            search.expansions += 1

    _patch_function(interpreter, "successor_list",
                    lambda f: span("interp.interpreter", f))
    _patch_function(interpreter, "thread_successor_list",
                    lambda f: span("interp.interpreter", f, count_expansion))

    # interp.memory_model: every model's transition functions
    def count_transitions(args, result, nested):
        if not nested:
            t.transitions_out += len(result)

    def count_transition(nested):
        if not nested:
            t.transitions_out += 1

    for model in (RAMemoryModel, SRAMemoryModel, SCMemoryModel):
        _patch_method(model, "transitions_list",
                      lambda f: span("interp.memory_model", f, count_transitions))
        _patch_method(model, "transitions",
                      lambda f: t.gen_span("interp.memory_model", f, count_transition))

    # c11.compact: the derived-order operations the RA model calls
    for method in ("add_read_event", "add_write_event", "add_rmw_event",
                   "observable_on", "read_targets", "write_targets"):
        _patch_method(CompactOrders, method, lambda f: span("c11.compact", f))

    # engine.keys: canonical keying; a state whose key slot is already
    # filled is a cache hit, exactly as KEY_CACHE counts it
    def key_span(f):
        timed = span("engine.keys", f)

        def canonical_state_key(self, state):
            cached = getattr(state, "_canon_key", _ABSENT)
            search = t._search()
            if cached is not _ABSENT:
                hit = cached is not None
                t.key_hits += hit
                t.key_misses += not hit
                if search is not None:
                    search.hits += hit
                    search.misses += not hit
            if search is not None and not t.acc["hooks"].depth:
                search.lookups += 1
            return timed(self, state)

        return functools.wraps(f)(canonical_state_key)

    for model in (MemoryModel, RAMemoryModel, SRAMemoryModel):
        _patch_method(model, "canonical_state_key", key_span)

    # engine.frontier: push/pop, with the peak measured after each push
    def track_peak(args, result, nested):
        search = t._search()
        if search is not None:
            search.pushes += 1
            size = len(args[0])
            if size > search.peak:
                search.peak = size

    for cls in (frontier.BFSFrontier, frontier.DFSFrontier):
        _patch_method(cls, "push", lambda f: span("engine.frontier", f, track_peak))
        _patch_method(cls, "pop", lambda f: span("engine.frontier", f))

    # hooks are wrapped per call by the explore wrapper
    _patch_function(core, "explore", t.wrap_explore)

    # verify.assertions: one obligation or source-side check per call
    _patch_method(Invariant, "holds", lambda f: span("verify.assertions", f))

    # engine.por and its dependency relation
    _patch_function(por, "explore_reduced", lambda f: span("engine.por", f))
    _patch_function(deps, "step_footprint", lambda f: span("engine.por.deps", f))
    _patch_function(deps, "conflicts", lambda f: span("engine.por.deps", f))

    # interp.compiled: lowering, once per search
    _patch_function(compiled, "maybe_lower", lambda f: span("interp.compiled", f))

    # axiomatic
    _patch_function(validity, "check_validity",
                    lambda f: span("axiomatic.validity", f))

    def count_candidate(nested):
        if not nested:
            t.candidates_yielded += 1

    _patch_function(candidates, "enumerate_candidates",
                    lambda f: t.gen_span("axiomatic.candidates", f, count_candidate))
    _patch_function(equivalence, "compare_axiomatisations",
                    lambda f: span("axiomatic.equivalence", f))

    # relations: closures over explicit pair sets
    _patch_method(Relation, "transitive_closure", lambda f: span("relations", f))
    for name in ("reachable_from", "transitive_closure_pairs", "is_acyclic",
                 "is_irreflexive", "has_path"):
        _patch_function(closure, name, lambda f: span("relations", f))

    # fuzz
    _patch_function(generator, "generate_case", lambda f: span("fuzz.generator", f))
    _patch_function(oracles, "check_program", lambda f: span("fuzz.oracles", f))


_ABSENT = object()

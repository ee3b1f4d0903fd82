"""Cross-process key encoding (DESIGN.md §15).

The spillable visited set stores every configuration key as its
``encode_config_key`` bytes and indexes them by ``key_digest_of``, and
a checkpoint carries those bytes into whatever interpreter resumes it.
So the encoding and its digest must be pure functions of the key's
*value* — identical in a forked worker, in a fresh interpreter, and
across interpreter runs with different string-hash salts.  ``hash()``
guarantees none of that; these tests pin that the stable encoding and
blake2b digest do.
"""

import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.c11.compact import CachedKey
from repro.engine.keys import stable_encode
from repro.engine.visited import encode_config_key, key_digest_of
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.litmus.suite import ALL_TESTS


def _sb_digests():
    """Sorted hex digests of every key the SB exploration visits."""
    test = ALL_TESTS[0]
    result = explore(test.program, test.init, RAMemoryModel(),
                     max_events=test.max_events)
    return sorted(
        key_digest_of(encode_config_key(key)).hex() for key in result.parents
    )


def test_stable_encode_is_injective_on_the_key_grammar():
    samples = [
        (),
        (0,),
        (1,),
        ("1",),  # str vs int
        (b"1",),  # bytes vs str
        ("",),
        (None,),
        ((),),  # nesting vs flat
        ((), ()),
        ("ab", "c"),
        ("a", "bc"),  # concatenation boundary
        (-1,),
        (frozenset({1, 2}),),
        (frozenset({(1, 2)}),),
    ]
    encodings = [stable_encode(s) for s in samples]
    assert len(set(encodings)) == len(samples), "encoding collision"
    # deterministic: same value, same bytes
    assert stable_encode(("x", 1, None)) == stable_encode(("x", 1, None))
    # ...with respect to *equality*: True == 1, so they must encode
    # equally (the in-memory visited set merges them, and a spilled
    # one must too)
    assert stable_encode((True,)) == stable_encode((1,))
    assert stable_encode((False,)) == stable_encode((0,))


def test_spill_encoding_routes_through_cached_key():
    """An interned ``CachedKey`` encodes as its raw parts, so the
    wrapped and the fresh tuple form of one key are one record."""
    test = ALL_TESTS[0]
    result = explore(test.program, test.init, RAMemoryModel(),
                     max_events=test.max_events)
    cached = [
        key for key in result.parents if type(key[1]) is CachedKey
    ]
    assert cached, "RA canonical keys should be interned CachedKeys"
    program, state_key = cached[0]
    enc = encode_config_key((program, state_key))
    assert enc == encode_config_key((program, CachedKey(state_key.parts)))
    assert enc == encode_config_key((program, state_key.parts))


def test_digests_identical_in_forked_worker():
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    proc = ctx.Process(target=lambda q: q.put(_sb_digests()), args=(queue,))
    proc.start()
    child = queue.get(timeout=60)
    proc.join(timeout=10)
    assert child == _sb_digests()


_FRESH_INTERPRETER = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_key_digest import _sb_digests
print("\\n".join(_sb_digests()))
"""


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_digests_identical_in_fresh_interpreter(hashseed):
    """Spawn-equivalent: a fresh interpreter with a *different* string
    hash salt must compute byte-identical digests (hash() would not)."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    script = _FRESH_INTERPRETER.format(src=src, tests=here)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.split() == _sb_digests()

"""The run ledger (DESIGN.md §14).

Every CLI invocation that explores something — ``run``, ``suite``,
``fuzz``, ``verify`` — appends one schema-versioned JSON record to
``.repro/runs.jsonl`` in the repository root (or wherever the command
ran from).  The ledger is the longitudinal memory of the project: it
answers "did yesterday's change make the suite slower?" without
re-running anything, and it is the precursor to the result store of
the litmus-checking service sketched in ROADMAP.md.

Record schema (``repro-ledger/1``)::

    {"schema": "repro-ledger/1", "ts": ..., "cmd": "suite",
     "argv": [...], "seed": 0, "git": "9b7101d", "host": ...,
     "pid": ..., "wall": 1.23, "verdict": "ok",
     "stats": {"configs": ..., "transitions": ..., ...}}

``verdict`` is ``ok`` / ``fail`` / ``error``; ``stats`` is free-form
per command but conventionally mirrors the printed footer.  Records
are append-only; ``repro runs list`` and ``repro runs diff`` read them
back.

Environment:

* ``REPRO_LEDGER=PATH`` — write somewhere else;
* ``REPRO_NO_LEDGER=1`` — disable entirely (the test suite sets this
  so unit tests do not pollute the working tree).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

#: Schema identifier stamped into every ledger record.
SCHEMA_NAME = "repro-ledger/1"

#: Default ledger location, relative to the current working directory.
DEFAULT_PATH = os.path.join(".repro", "runs.jsonl")

#: Fields every ledger record must carry (checked by ``runs list``).
REQUIRED_FIELDS = frozenset(
    {"schema", "ts", "cmd", "argv", "git", "pid", "wall", "verdict", "stats"}
)

_git_rev_cache: Optional[str] = None


def git_rev() -> str:
    """The abbreviated HEAD revision, or ``""`` outside a repository."""
    global _git_rev_cache
    if _git_rev_cache is None:
        try:
            _git_rev_cache = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5, check=False,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            _git_rev_cache = ""
    return _git_rev_cache


def ledger_path() -> Optional[str]:
    """The active ledger path, or ``None`` when disabled."""
    if os.environ.get("REPRO_NO_LEDGER"):
        return None
    return os.environ.get("REPRO_LEDGER") or DEFAULT_PATH


def append_record(cmd: str, *, verdict: str, wall: float,
                  stats: Optional[Dict[str, Any]] = None,
                  seed: Optional[int] = None,
                  argv: Optional[List[str]] = None,
                  path: Optional[str] = None) -> Optional[dict]:
    """Append one record; returns it, or ``None`` when the ledger is
    disabled.  Never raises — an unwritable ledger must not fail the
    run it is recording."""
    target = path if path is not None else ledger_path()
    if target is None:
        return None
    record: Dict[str, Any] = {
        "schema": SCHEMA_NAME,
        "ts": time.time(),
        "cmd": cmd,
        "argv": argv if argv is not None else list(sys.argv[1:]),
        "seed": seed,
        "git": git_rev(),
        "host": os.uname().nodename if hasattr(os, "uname") else "",
        "pid": os.getpid(),
        "wall": round(wall, 6),
        "verdict": verdict,
        "stats": stats or {},
    }
    try:
        parent = os.path.dirname(target)
        if parent:
            os.makedirs(parent, exist_ok=True)
        fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(
                fd,
                (json.dumps(record, separators=(",", ":")) + "\n").encode(
                    "utf-8"
                ),
            )
        finally:
            os.close(fd)
    except OSError:
        return None
    return record


def read_ledger(path: Optional[str] = None) -> List[dict]:
    """All records from the ledger (malformed lines are skipped — a
    ledger survives interrupted writers and hand edits)."""
    target = path if path is not None else (
        os.environ.get("REPRO_LEDGER") or DEFAULT_PATH
    )
    records: List[dict] = []
    try:
        handle = open(target, "r", encoding="utf-8")
    except OSError:
        return records
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def format_list(records: List[dict], limit: int = 20) -> List[str]:
    """Human lines for ``repro runs list`` — newest last."""
    lines = []
    for record in records[-limit:]:
        ts = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(record.get("ts", 0))
        )
        stats = record.get("stats", {})
        configs = stats.get("configs", "-")
        # recovery history (DESIGN.md §16): mark resumed runs so `runs
        # list` shows them at a glance; `runs diff` already compares the
        # underlying counters
        recovery = " resumed" if stats.get("resumed") else ""
        lines.append(
            f"{ts}  {record.get('git', '') or '-':>9}  "
            f"{record.get('cmd', '?'):<7} {record.get('verdict', '?'):<5} "
            f"wall={record.get('wall', 0):.2f}s configs={configs}{recovery}"
        )
    return lines


def diff_records(old: dict, new: dict) -> List[str]:
    """Field-by-field comparison lines for ``repro runs diff``."""
    lines = [
        f"old: {old.get('git', '-')} {old.get('cmd', '?')} "
        f"verdict={old.get('verdict', '?')} wall={old.get('wall', 0):.2f}s",
        f"new: {new.get('git', '-')} {new.get('cmd', '?')} "
        f"verdict={new.get('verdict', '?')} wall={new.get('wall', 0):.2f}s",
    ]
    old_stats = old.get("stats", {}) or {}
    new_stats = new.get("stats", {}) or {}
    for key in sorted(set(old_stats) | set(new_stats)):
        before, after = old_stats.get(key), new_stats.get(key)
        if before == after:
            continue
        delta = ""
        if isinstance(before, (int, float)) and isinstance(after, (int, float)):
            change = after - before
            if before:
                delta = f"  ({change:+.4g}, {100.0 * change / before:+.1f}%)"
            else:
                delta = f"  ({change:+.4g})"
        lines.append(f"  {key}: {before} -> {after}{delta}")
    if len(lines) == 2:
        lines.append("  (stats identical)")
    return lines


__all__ = [
    "DEFAULT_PATH",
    "REQUIRED_FIELDS",
    "SCHEMA_NAME",
    "append_record",
    "diff_records",
    "format_list",
    "git_rev",
    "ledger_path",
    "read_ledger",
]

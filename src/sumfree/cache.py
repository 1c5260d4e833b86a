"""Append-only JSON-lines result cache.

One record per line so interrupted runs never corrupt earlier results.
Reads are forgiving: unknown fields are kept, corrupt lines are skipped
with a warning, and duplicate (kind, parameters) keys resolve to the
last written record.  Each record carries the sumfree version and a
digest of the solver source that computed it.

``lookup`` parses only the lines that hold the parameters' sorted JSON
text, as every record ``append_record`` writes does, so a hand-written
record serialized otherwise is a miss, recomputed and appended.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from dataclasses import dataclass, asdict
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

ENV_VAR = "SUMFREE_CACHE"
DEFAULT_PATH = "sumfree-cache.jsonl"


@dataclass(frozen=True)
class CacheRecord:
    kind: str
    parameters: dict
    result: dict
    version: str
    timestamp: str
    solver: str = ""

    def key(self) -> tuple[str, str]:
        return self.kind, json.dumps(self.parameters, sort_keys=True)


def resolve_path(explicit: str | None = None) -> str:
    return explicit or os.environ.get(ENV_VAR) or DEFAULT_PATH


@cache
def solver_digest() -> str:
    """CRC-32 of the package's ``.py`` files, computed once per process.

    It tells a changed solver source from the running one; nothing here
    is adversarial, and ``hashlib`` would load OpenSSL (about 3.6 MiB of
    resident memory) into every CLI call.
    """
    crc = 0
    for path in sorted(Path(__file__).parent.glob("*.py")):
        crc = zlib.crc32(path.name.encode() + b"\0" + path.read_bytes() + b"\0", crc)
    return f"{crc:08x}"


def make_record(kind: str, parameters: dict, result: dict, version: str) -> CacheRecord:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return CacheRecord(kind=kind, parameters=parameters, result=result,
                       version=version, timestamp=stamp, solver=solver_digest())


def append_record(path: str, record: CacheRecord) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")


def _read_records(path: str, text: str = ""):
    """The records of the lines of ``path`` that contain ``text``, in order.

    Corrupt lines are skipped with a warning; so is a record whose
    ``kind`` is not a string, which no key could be sorted or hashed with.
    """
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if text not in line or not line.strip():
                continue
            try:
                raw = json.loads(line)
                if not isinstance(raw["kind"], str):
                    raise TypeError(f"kind {raw['kind']!r} is not a string")
                rec = CacheRecord(raw["kind"], raw["parameters"], raw["result"],
                                  raw.get("version", "unknown"), raw.get("timestamp", ""),
                                  raw.get("solver", ""))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                sys.stderr.write(f"warning: {path}:{lineno}: skipping bad cache line ({exc})\n")
                continue
            yield rec


def load_records(path: str) -> dict[tuple[str, str], CacheRecord]:
    """Latest record per (kind, parameters) key; corrupt lines are skipped."""
    return {rec.key(): rec for rec in _read_records(path)}


def lookup(path: str, kind: str, parameters: dict) -> CacheRecord | None:
    """``load_records(path).get(key)``, parsing only the lines that can hold it."""
    text = json.dumps(parameters, sort_keys=True)
    hits = [rec for rec in _read_records(path, text) if rec.key() == (kind, text)]
    return hits[-1] if hits else None

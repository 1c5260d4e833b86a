"""Append-only JSON-lines result cache.

One record per line so interrupted runs never corrupt earlier results.
``append_record`` encodes a record once and writes its line with one
unbuffered binary append, and the line always starts a new line: when
the file's last byte is not a line break (an editor dropped it, or a
write was cut short), a ``\\n`` goes first, so the last record is not
merged into the new one.

Reads are forgiving: unknown fields are ignored (the line stays in the
file), corrupt lines are skipped with a warning, and duplicate (kind,
parameters) keys resolve to the last written record.  Each record
carries the sumfree version and a digest of the solver source that
computed it.

``read_records`` reads the file once as bytes.  ``lookup`` finds the
parameters' sorted JSON text in it with one byte search and parses only
the lines that hold it, as every record ``append_record`` writes does,
so a hand-written record serialized otherwise is a miss, recomputed and
appended.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from functools import cache
from typing import NamedTuple

ENV_VAR = "SUMFREE_CACHE"
DEFAULT_PATH = "sumfree-cache.jsonl"

# json.dumps(obj, sort_keys=True) builds this encoder on every call
_encode = json.JSONEncoder(sort_keys=True).encode
# read and append, unbuffered and untranslated: a write lands at the end in one piece
_APPEND = os.O_RDWR | os.O_APPEND | os.O_CREAT | getattr(os, "O_BINARY", 0)


class CacheRecord(NamedTuple):
    kind: str
    parameters: dict
    result: dict
    version: str
    solver: str

    def key(self) -> tuple[str, str]:
        return self.kind, _encode(self.parameters)


def resolve_path(explicit: str | None = None) -> str:
    if explicit == "":  # an empty $SUMFREE_CACHE still means unset
        raise ValueError("cache path must not be empty")
    return explicit or os.environ.get(ENV_VAR) or DEFAULT_PATH


@cache
def solver_digest() -> str:
    """CRC-32 of the package's ``.py`` files, computed once per process.

    It tells a changed solver source from the running one; nothing here
    is adversarial, and ``hashlib`` would load OpenSSL (about 3.6 MiB of
    resident memory) into every CLI call.
    """
    crc = 0
    package = os.path.dirname(__file__)
    for name in sorted(name for name in os.listdir(package) if name.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            crc = zlib.crc32(name.encode() + b"\0" + fh.read() + b"\0", crc)
    return f"{crc:08x}"


def make_record(kind: str, parameters: dict, result: dict, version: str) -> CacheRecord:
    return CacheRecord(kind=kind, parameters=parameters, result=result,
                       version=version, solver=solver_digest())


def check_appendable(path: str) -> None:
    """Raise the ``OSError`` that appending to ``path`` would, creating no file.

    An existing path is opened for append and closed, which changes
    nothing; a new one must have a writable directory, and otherwise
    ``open`` itself raises, as it cannot create the file there.
    """
    parent = os.path.dirname(path) or os.curdir
    if os.path.exists(path) or not (
            os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        os.close(os.open(path, _APPEND, 0o666))


def append_record(path: str, record: CacheRecord) -> None:
    """Append ``record``'s sorted-key JSON line to ``path`` with one write.

    A non-empty file whose last byte is neither ``\\n`` nor ``\\r`` gets
    a ``\\n`` first, in the same write.
    """
    line = _encode(record._asdict()).encode() + b"\n"  # ASCII: the encoder escapes the rest
    fd = os.open(path, _APPEND, 0o666)
    try:
        end = os.lseek(fd, 0, os.SEEK_END)
        if end:
            os.lseek(fd, end - 1, os.SEEK_SET)
            if os.read(fd, 1) not in b"\r\n":
                line = b"\n" + line
        written = os.write(fd, line)
        while written < len(line):  # a short write: append the rest
            written += os.write(fd, line[written:])
    finally:
        os.close(fd)


def _lines(data: bytes, needle: bytes):
    """(offset, line) for each line of ``data`` that holds ``needle``, in order.

    Lines end at ``\\n``; each is given with it, unless it is the
    unterminated last line.  An empty ``needle`` gives every line, one at
    a time.
    """
    at = data.find(needle)
    while 0 <= at < len(data):
        # each search stops at the nearest break, so a match costs its line only
        start = data.rfind(b"\n", 0, at) + 1
        end = data.find(b"\n", at)
        end = len(data) if end < 0 else end
        yield start, data[start:end + 1]
        at = data.find(needle, end + 1)


def read_records(path: str, text: str = ""):
    """The records of the lines of ``path`` that contain ``text``, in order.

    The file is read once as bytes; a ``\\r\\n`` or ``\\r`` in it, where a
    text-mode read ends a line, becomes ``\\n``.  It is searched for
    ``text``'s UTF-8 bytes; ``text`` holds no line break.  Corrupt lines,
    UTF-8 or JSON, are skipped with a warning that names the line's
    number; so is a record whose ``kind`` is not a string, which no key
    could be sorted or hashed with.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    counted, lineno = 0, 1  # a warning counts lines on from the previous warning
    for offset, line in _lines(data, text.encode()):
        try:
            line = line.decode("utf-8")
            if not line.strip():
                continue
            raw = json.loads(line)
            if not isinstance(raw["kind"], str):
                raise TypeError(f"kind {raw['kind']!r} is not a string")
            rec = CacheRecord(raw["kind"], raw["parameters"], raw["result"],
                              raw.get("version", "unknown"), raw.get("solver", ""))
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
            lineno += data.count(b"\n", counted, offset)
            counted = offset
            sys.stderr.write(f"warning: {path}:{lineno}: skipping bad cache line ({exc})\n")
            continue
        yield rec


def lookup(path: str, kind: str, parameters: dict) -> CacheRecord | None:
    """The last record of this kind and parameters, parsing only the lines that hold them."""
    text = _encode(parameters)
    found = None
    for rec in read_records(path, text):
        if rec.key() == (kind, text):
            found = rec
    return found

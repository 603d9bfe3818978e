"""Schema-v1 JSONL: the one writer and reader behind every export.

``--metrics-out`` (:func:`repro.obs.metrics.snapshot_records`) and
``--findings-out`` (:meth:`repro.findings.FindingsLedger.records`) share
this format, and ``findings diff`` reads it back:

* line 1 is a ``meta`` record — ``{"record": "meta", "schema": 1}``
  plus the caller's context keys;
* then one JSON object per line, each naming its ``record`` kind, in
  the caller's canonical (sorted) order;
* every object is serialized with sorted keys, so the bytes are a pure
  function of (records, meta), and files are written atomically.

The reader raises ``ValueError`` with a ``line <n>:`` prefix on the
first structural problem.  Per-kind field schemas live in
``scripts/check_jsonl.py``; this module only knows the envelope.
"""

from __future__ import annotations

import json
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from .util import atomic_write_text

#: Bump on any incompatible change to the envelope or a record schema.
SCHEMA_VERSION = 1

Record = Dict[str, object]


def dumps(records: Iterable[Mapping[str, object]],
          meta: Optional[Mapping[str, object]] = None) -> str:
    """Render the meta line plus ``records`` (already in canonical
    order) as JSONL text."""
    header: Record = {"record": "meta", "schema": SCHEMA_VERSION}
    header.update(meta or {})
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(record, sort_keys=True) for record in records]
    return "\n".join(lines) + "\n"


def write(path: str, records: Iterable[Mapping[str, object]],
          meta: Optional[Mapping[str, object]] = None) -> None:
    """Atomically write :func:`dumps` output to ``path``."""
    atomic_write_text(path, dumps(records, meta))


def parse(lines: Sequence[str], kinds: Optional[Iterable[str]] = None
          ) -> Tuple[Record, List[Record]]:
    """Split JSONL lines into ``(meta, records)``.

    Checks the envelope only: a meta line first (and only first) with
    the supported schema, one JSON object per non-blank line, and —
    given ``kinds`` — no record kind outside that set.
    """
    if not lines:
        raise ValueError("line 1: empty file (expected a meta record)")
    allowed = None if kinds is None else set(kinds)
    meta: Record = {}
    records: List[Record] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            raise ValueError(f"line {line_no}: blank line")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {line_no}: not JSON: {exc}")
        if not isinstance(record, dict):
            raise ValueError(f"line {line_no}: record must be a JSON "
                             f"object")
        kind = record.get("record")
        if line_no == 1:
            if kind != "meta":
                raise ValueError("line 1: first record must be 'meta'")
            if record.get("schema") != SCHEMA_VERSION:
                raise ValueError(
                    f"line 1: unsupported schema "
                    f"{record.get('schema')!r} "
                    f"(expected {SCHEMA_VERSION})")
            meta = record
        elif kind == "meta":
            raise ValueError(f"line {line_no}: only line 1 may be "
                             f"'meta'")
        elif allowed is not None and kind not in allowed:
            raise ValueError(f"line {line_no}: unknown record kind "
                             f"{kind!r}")
        else:
            records.append(record)
    return meta, records


def read(path: str, kinds: Optional[Iterable[str]] = None
         ) -> Tuple[Record, List[Record]]:
    """:func:`parse` the file at ``path``."""
    with open(path, "r", encoding="utf-8") as fileobj:
        return parse(fileobj.read().splitlines(), kinds)

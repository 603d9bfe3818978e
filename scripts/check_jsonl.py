"""Validate a ``--metrics-out`` or ``--findings-out`` JSONL export.

Usage::

    python scripts/check_jsonl.py FILE

Both exports are schema-v1 JSONL (:mod:`repro.jsonl`): line 1 is a
``{"record": "meta", "schema": 1, ...}`` record carrying the run's
context, then one record per line.  The export is a stable machine
surface (``findings diff``, CI artifacts, external tooling), so this
checker fails the build the moment one stops conforming.  The family
is inferred from the record kinds; a file mixing the two is rejected.

Metrics records (names unique within their kind):

* ``counter``: ``name`` (str), ``value`` (int >= 0);
* ``gauge``: ``name`` (str), ``value`` (int/float);
* ``histogram``: ``name``, ``le`` (strictly increasing bounds),
  ``counts`` (len(le)+1 non-negative ints summing to ``count``),
  ``count``, ``sum``, ``min``, ``max``.

Findings records (``finding``): ``code`` (str), ``title`` (str),
``severity`` (info/low/medium/high/critical), ``confidence`` (number in
[0, 1]), ``passed`` (bool), ``count`` (int >= 1) and ``evidence`` (a
list of objects, each with a string ``text`` plus optional pointers
from the Evidence field set).  Findings files also obey three rules:
the meta never carries ``jobs`` (the export is byte-identical across
worker counts), records arrive in the ledger's canonical order, and no
record repeats (identical findings dedupe into ``count``).  A file with
only the meta line is a valid empty export; as it may be an empty
findings export, its meta must not carry ``jobs`` either.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import jsonl  # noqa: E402

SEVERITIES = ("info", "low", "medium", "high", "critical")

#: Evidence keys beyond ``text`` the model defines, with their types.
EVIDENCE_POINTERS = {
    "capture": str,
    "household": int,
    "vendor": str,
    "country": str,
    "phase": str,
    "flow": str,
    "segment": int,
    "record_start": int,
    "record_end": int,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_counter(record: dict) -> None:
    if not _is_int(record.get("value")) or record["value"] < 0:
        raise ValueError(f"counter value must be a non-negative int, "
                         f"got {record.get('value')!r}")


def _check_gauge(record: dict) -> None:
    if not _is_number(record.get("value")):
        raise ValueError(f"gauge value must be numeric, "
                         f"got {record.get('value')!r}")


def _check_histogram(record: dict) -> None:
    for key in ("le", "counts", "count", "sum"):
        if key not in record:
            raise ValueError(f"histogram missing {key!r}")
    bounds, counts = record["le"], record["counts"]
    if not all(_is_number(bound) for bound in bounds):
        raise ValueError("histogram bounds must be numeric")
    if any(nxt <= prev for prev, nxt in zip(bounds, bounds[1:])):
        raise ValueError("histogram bounds must be strictly increasing")
    if len(counts) != len(bounds) + 1:
        raise ValueError(f"histogram needs len(le)+1 buckets "
                         f"({len(bounds) + 1}), got {len(counts)}")
    if not all(_is_int(count) and count >= 0 for count in counts):
        raise ValueError("bucket counts must be non-negative ints")
    if sum(counts) != record["count"]:
        raise ValueError(f"bucket counts sum to {sum(counts)}, "
                         f"count says {record['count']}")
    if record["count"] and (record.get("min") is None
                            or record.get("max") is None):
        raise ValueError("non-empty histogram needs min and max")


def _check_evidence(entries) -> None:
    if not isinstance(entries, list):
        raise ValueError(f"evidence must be a list, got {entries!r}")
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("evidence entries must be JSON objects")
        if not isinstance(entry.get("text"), str):
            raise ValueError("evidence entry needs a string 'text'")
        for key, value in entry.items():
            if key == "text":
                continue
            expected = EVIDENCE_POINTERS.get(key)
            if expected is None:
                raise ValueError(f"unknown evidence field {key!r}")
            if not isinstance(value, expected) \
                    or isinstance(value, bool):
                raise ValueError(f"evidence field {key!r} must be "
                                 f"{expected.__name__}, got {value!r}")


def _check_finding(record: dict) -> None:
    for field in ("code", "title", "severity", "confidence", "passed",
                  "count", "evidence"):
        if field not in record:
            raise ValueError(f"finding missing {field!r}")
    if not isinstance(record["code"], str) or not record["code"]:
        raise ValueError("finding needs a non-empty string code")
    if not isinstance(record["title"], str):
        raise ValueError("finding title must be a string")
    if record["severity"] not in SEVERITIES:
        raise ValueError(f"unknown severity {record['severity']!r} "
                         f"(choose from {', '.join(SEVERITIES)})")
    confidence = record["confidence"]
    if not _is_number(confidence) or not 0.0 <= confidence <= 1.0:
        raise ValueError(f"confidence must be a number in [0, 1], "
                         f"got {confidence!r}")
    if not isinstance(record["passed"], bool):
        raise ValueError("passed must be a bool")
    if not _is_int(record["count"]) or record["count"] < 1:
        raise ValueError(f"count must be an int >= 1, "
                         f"got {record['count']!r}")
    _check_evidence(record["evidence"])


def _metric_key(record: dict) -> tuple:
    """Metric identity: kind plus a non-empty string name."""
    name = record.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"{record['record']} needs a non-empty string "
                         f"name")
    return (record["record"], name)


def _finding_key(record: dict) -> tuple:
    """Mirror of ``Finding.sort_key`` over the exported dict."""
    payload = {key: value for key, value in record.items()
               if key not in ("count", "record")}
    return (record["code"], -SEVERITIES.index(record["severity"]),
            json.dumps(payload, sort_keys=True))


#: record kind -> (family, field check, identity key).
SCHEMAS = {
    "counter": ("metrics", _check_counter, _metric_key),
    "gauge": ("metrics", _check_gauge, _metric_key),
    "histogram": ("metrics", _check_histogram, _metric_key),
    "finding": ("findings", _check_finding, _finding_key),
}


def check_lines(lines) -> int:
    """Validate a list of JSONL lines; returns the record count.

    Raises ``ValueError`` with a ``line <n>:`` prefix on the first
    violation, including input with no meta line.
    """
    meta, records = jsonl.parse(lines, kinds=SCHEMAS)
    family = None
    seen = set()
    previous = None
    for line_no, record in enumerate(records, start=2):
        kind_family, check, identity = SCHEMAS[record["record"]]
        try:
            if family not in (None, kind_family):
                raise ValueError(f"{kind_family} record in a {family} "
                                 f"export (one family per file)")
            family = kind_family
            check(record)
            key = identity(record)
            if family == "metrics":
                if key in seen:
                    raise ValueError(f"duplicate {key[0]} {key[1]!r}")
                seen.add(key)
            else:
                if previous is not None and key <= previous:
                    raise ValueError("finding records out of canonical "
                                     "order (or duplicated)")
                previous = key
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    if family != "metrics" and "jobs" in meta:
        raise ValueError("line 1: meta must not carry 'jobs' (exports "
                         "are jobs-invariant by contract)")
    return len(records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="validate a metrics or findings JSONL export")
    parser.add_argument("path", help="the .jsonl export to check")
    path = parser.parse_args(argv).path
    try:
        with open(path, "r", encoding="utf-8") as fileobj:
            records = check_lines(fileobj.read().splitlines())
    except OSError as exc:
        print(f"check-jsonl: cannot read {path}: {exc}")
        return 1
    except ValueError as exc:
        print(f"check-jsonl: {path}: {exc}")
        return 1
    print(f"check-jsonl: {path} ok ({records} records, schema "
          f"{jsonl.SCHEMA_VERSION})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

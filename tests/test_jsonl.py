"""Tests for the one schema-v1 JSONL writer/reader and its checker.

The sha256 pins fix the exact bytes of a metrics and a findings export
for a fixed snapshot and ledger: any change to the envelope, the record
shapes or their order shows up here before it reaches a consumer.
"""

import hashlib
import os
import sys

import pytest

from repro import jsonl
from repro.findings import Evidence, Finding, FindingsLedger
from repro.obs.metrics import MetricsRegistry, snapshot_records

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts"))
from check_jsonl import check_lines, main  # noqa: E402


def _snapshot():
    registry = MetricsRegistry()
    registry.inc("cache.hit", 6)
    registry.inc("cache.miss", 2)
    registry.inc("fleet.households", 3)
    registry.gauge_max("bus.peak", 3.5)
    registry.gauge_set("window", 2)
    registry.observe("work.wall_ms", 12.0)
    registry.observe("work.wall_ms", 0.5)
    registry.observe("tiny", 1.0, bounds=(1.0, 2.0))
    return registry.snapshot()


def _ledger():
    degraded = Finding.degradation("hh-0003", 3, 1, 7, "bad magic")
    return FindingsLedger([
        Finding(code="S1", title="check S1", severity="medium",
                confidence=0.9, passed=True,
                evidence=(Evidence(text="11 batches", vendor="lg",
                                   country="uk"),)),
        degraded, degraded,
        Finding.optout_violation("hh-0001", 1, "roku", "us", "LOut-OOut",
                                 4096, ["b.roku.example",
                                        "a.roku.example"]),
    ])


def _metrics_text():
    return jsonl.dumps(snapshot_records(_snapshot()),
                       {"command": "fleet", "households": 3, "seed": 7,
                        "jobs": 2})


def _findings_text():
    return jsonl.dumps(_ledger().records(),
                       {"command": "fleet", "households": 3, "seed": 7})


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestWriter:
    def test_metrics_export_bytes_are_pinned(self):
        assert _sha(_metrics_text()) == (
            "c4dbdc6161e1e539658624b2e1fad833"
            "347e5425794faa2623286a0218bd35f5")

    def test_findings_export_bytes_are_pinned(self):
        assert _sha(_findings_text()) == (
            "82f2dd26b89bdb77b673b9761c9cb4ad"
            "db18c5875de3420b5566b7b3cf8113d7")


class TestReader:
    @pytest.mark.parametrize("lines, message", [
        ([], "line 1: empty file"),
        (['{"record": "meta", "schema": 1}', ""], "line 2: blank line"),
        (['{"record": "meta", "schema": 1}', "[]"],
         "line 2: record must be a JSON object"),
        (['{"record": "meta", "schema": 1}',
          '{"record": "meta", "schema": 1}'],
         "line 2: only line 1 may be 'meta'"),
    ])
    def test_envelope_errors_name_the_line(self, lines, message):
        with pytest.raises(ValueError, match=message):
            jsonl.parse(lines)

    def test_kinds_restricts_record_kinds(self):
        lines = _metrics_text().splitlines()
        with pytest.raises(ValueError,
                           match="line 2: unknown record kind 'counter'"):
            jsonl.parse(lines, kinds=("finding",))


class TestChecker:
    def test_accepts_both_families(self):
        # The metrics meta carries jobs; only findings exports forbid it.
        assert check_lines(_metrics_text().splitlines()) == 7
        assert check_lines(_findings_text().splitlines()) == 3

    def test_rejects_input_without_a_meta_record(self):
        with pytest.raises(ValueError, match="line 1: empty file"):
            check_lines([])

    def test_meta_only_file_is_an_empty_export(self):
        assert check_lines(['{"record": "meta", "schema": 1}']) == 0
        with pytest.raises(ValueError, match="jobs-invariant"):
            check_lines(['{"jobs": 2, "record": "meta", "schema": 1}'])

    def test_rejects_mixed_families(self):
        lines = _findings_text().splitlines() \
            + _metrics_text().splitlines()[1:2]
        with pytest.raises(ValueError,
                           match="line 5: metrics record in a findings"):
            check_lines(lines)

    def test_rejects_duplicate_metric_names(self):
        lines = _metrics_text().splitlines()
        with pytest.raises(ValueError,
                           match="line 3: duplicate counter 'cache.hit'"):
            check_lines(lines[:2] + lines[1:])

    def test_main_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        good.write_text(_findings_text(), encoding="utf-8")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("", encoding="utf-8")
        assert main([str(good)]) == 0
        assert "ok (3 records, schema 1)" in capsys.readouterr().out
        assert main([str(bad)]) == 1
        assert "line 1: empty file" in capsys.readouterr().out
        assert main([str(tmp_path / "missing.jsonl")]) == 1

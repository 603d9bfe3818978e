"""First-class findings: model, ledger and diff.

The four emitters in the repository — scorecard checks, vendor
conformance contracts, fleet/service degradation quarantines, and
service opt-out violations — all produce the same frozen
:class:`Finding` value, accumulate through the same associative
:class:`FindingsLedger`, export through the same schema-v1 JSONL
(``--findings-out``, written by :mod:`repro.jsonl` from
:meth:`FindingsLedger.records`) and compare through the same
``findings diff``.

:mod:`repro.findings.conformance` (the contract evaluator) is imported
explicitly by its callers rather than re-exported here: it pulls in the
analysis stack, while this package root stays light enough for the
fault/fleet layers to import.
"""

from .diff import FindingsDiff, diff_records, record_identity
from .ledger import FindingsLedger
from .model import (DEGRADATION_CODE, OPTOUT_VIOLATION_CODE, SEVERITIES,
                    Evidence, Finding, severity_rank)

__all__ = [
    "DEGRADATION_CODE",
    "Evidence",
    "Finding",
    "FindingsDiff",
    "FindingsLedger",
    "OPTOUT_VIOLATION_CODE",
    "SEVERITIES",
    "diff_records",
    "record_identity",
    "severity_rank",
]

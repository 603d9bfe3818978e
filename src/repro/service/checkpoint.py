"""Durable checkpoint/resume for the streaming audit service.

A checkpoint is one JSON document: the folded
:class:`~repro.fleet.aggregate.FleetAggregate`, the set of completed
household indices, the in-flight ingestion cursors (informational — a
resumed run replays unfinished households from segment 0, since
captures are recalled from the result cache, not recomputed), and the
population identity that guards against resuming the wrong fleet.

Durability is layered:

* every write goes through :func:`repro.util.atomic_write_text`, so a
  kill mid-write leaves the previous file, never a torn one;
* the document carries a SHA-256 ``digest`` of its own canonical JSON,
  so silent on-disk corruption is *detected*, not resumed from (a
  document without a digest is rejected the same way);
* each snapshot is written twice — a rotated
  ``service-checkpoint-<seq>.json`` first, then the canonical
  ``service-checkpoint.json`` — and the newest
  :data:`CHECKPOINT_KEEP` rotated files are retained, so
  :func:`load_checkpoint` can fall back past a damaged newest snapshot
  to the newest *valid* one (counted as ``checkpoint.fallback``).

Fault injection (``checkpoint.torn`` / ``checkpoint.corrupt``) damages
these same two writes deterministically by write sequence: torn tears
the canonical write (the rotated twin of the same snapshot survives),
corrupt smashes the rotated file's digest (bounded per
:data:`~repro.faults.plan.FAULT_ATTEMPT_CAP`-sized sequence block, so
every block contains a durable rotated snapshot — which is why
:data:`CHECKPOINT_KEEP` is the block size and recovery stays total).

Growth in place is deliberate: resuming with a *larger*
``--households`` is allowed (same seed + mixes), so a fleet can be
extended without re-folding the part already audited.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Dict, List, Mapping, Optional, Tuple

from ..experiments.grid import code_version
from ..faults import FAULT_ATTEMPT_CAP, LOSSY_SITES, NULL_PLAN, FaultPlan
from ..fleet.aggregate import FleetAggregate
from ..obs.metrics import get_registry
from ..util import atomic_write_text
from .state import LiveState

#: Bump on any incompatible change to the checkpoint document.
CHECKPOINT_VERSION = 1

#: File name inside ``--checkpoint-dir``.
CHECKPOINT_NAME = "service-checkpoint.json"

#: Rotated snapshots retained beside the canonical file.  One more
#: than the fault attempt cap: any window of this many consecutive
#: write sequences contains a sequence whose bounded ``checkpoint.
#: corrupt`` draw cannot fire, i.e. at least one durable snapshot.
CHECKPOINT_KEEP = FAULT_ATTEMPT_CAP + 1

_ROTATED_RE = re.compile(r"^service-checkpoint-(\d{8})\.json$")


class CheckpointError(ValueError):
    """A checkpoint is missing, malformed, or for a different fleet."""


def checkpoint_path(directory: str) -> str:
    return os.path.join(directory, CHECKPOINT_NAME)


def rotated_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"service-checkpoint-{seq:08d}.json")


def rotated_sequences(directory: str) -> List[int]:
    """Write sequences of the rotated snapshots on disk, ascending."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = [int(match.group(1)) for name in names
             if (match := _ROTATED_RE.match(name))]
    return sorted(found)


class Checkpoint:
    """A loaded (or about-to-be-written) snapshot."""

    __slots__ = ("aggregate", "completed", "cursors", "population_key",
                 "households", "segments_folded")

    def __init__(self, aggregate: FleetAggregate, completed,
                 cursors: Mapping[int, int], population_key: str,
                 households: int, segments_folded: int = 0) -> None:
        self.aggregate = aggregate
        self.completed = set(completed)
        self.cursors = dict(cursors)
        self.population_key = population_key
        self.households = households
        self.segments_folded = segments_folded

    def restore_state(self) -> LiveState:
        return LiveState(self.aggregate, self.completed)

    def __repr__(self) -> str:
        return (f"Checkpoint({len(self.completed)}/{self.households} "
                f"households, {len(self.cursors)} in flight)")


def population_key(seed: int, mixes: Mapping[str, Mapping[str, float]],
                   faults: FaultPlan = NULL_PLAN) -> str:
    """Identity of a fleet's answer for resume guarding, not of its N.

    Household ``i``'s audit is a pure function of ``(seed, mixes, i)``,
    the code version and the plan's lossy sites (with their rates and
    the fault seed), so the key covers exactly those.  N stays out —
    that is what lets ``--resume`` grow a fleet in place — and so do
    lossless sites, which never change the report.
    """
    canonical = {axis: {value: float(weight)
                        for value, weight in sorted(weights.items())}
                 for axis, weights in sorted(mixes.items())}
    identity = {"seed": seed, "mixes": canonical, "code": code_version()}
    lossy = {site: rate for site, rate in faults.rates.items()
             if site in LOSSY_SITES}
    if lossy:
        identity["lossy"] = {"rates": lossy, "seed": faults.seed}
    return json.dumps(identity, sort_keys=True, separators=(",", ":"))


def _document_digest(document: Mapping) -> str:
    """SHA-256 of the document's canonical JSON, ``digest`` excluded."""
    undigested = {key: value for key, value in document.items()
                  if key != "digest"}
    canonical = json.dumps(undigested, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_checkpoint(directory: str, state: LiveState,
                     cursors: Mapping[int, int], key: str,
                     households: int, segments_folded: int = 0,
                     faults: FaultPlan = NULL_PLAN) -> str:
    """Durably persist a snapshot; returns the canonical file path.

    The rotated copy lands first, then the canonical file, then
    rotation pruning — so at every instant the newest valid snapshot
    on disk reflects either this fold or the previous one.
    """
    os.makedirs(directory, exist_ok=True)
    on_disk = rotated_sequences(directory)
    seq = on_disk[-1] + 1 if on_disk else 0
    document = {
        "version": CHECKPOINT_VERSION,
        "seq": seq,
        "population": key,
        "households": households,
        "segments_folded": segments_folded,
        "completed": sorted(state.completed),
        "cursors": {str(index): ingested
                    for index, ingested in sorted(cursors.items())},
        "aggregate": state.aggregate.to_dict(),
    }
    document["digest"] = _document_digest(document)
    text = json.dumps(document, sort_keys=True, indent=1) + "\n"
    registry = get_registry()

    rotated_text = text
    if faults.fires_bounded("checkpoint.corrupt",
                            seq % CHECKPOINT_KEEP, seq // CHECKPOINT_KEEP):
        # Parseable but wrong: the digest check must catch this one.
        rotated_text = text.replace(document["digest"], "0" * 64)
        registry.inc("faults.injected.checkpoint.corrupt")
    atomic_write_text(rotated_path(directory, seq), rotated_text)

    canonical_text = text
    if faults.fires("checkpoint.torn", seq):
        # Torn mid-payload: not even JSON.  The rotated twin written
        # above survives, which is what keeps recovery total at any
        # injection rate.
        canonical_text = text[:len(text) // 2]
        registry.inc("faults.injected.checkpoint.torn")
    path = checkpoint_path(directory)
    atomic_write_text(path, canonical_text)

    for stale in on_disk[:-(CHECKPOINT_KEEP - 1)] \
            if len(on_disk) >= CHECKPOINT_KEEP else []:
        try:
            os.remove(rotated_path(directory, stale))
        except OSError:
            pass
    return path


def _parse_snapshot(path: str) -> Tuple[Optional[dict], Optional[str]]:
    """``(document, None)`` when the file holds a verified snapshot,
    else ``(None, reason)``."""
    try:
        with open(path, "r", encoding="utf-8") as fileobj:
            document = json.load(fileobj)
    except FileNotFoundError:
        return None, "missing"
    except (OSError, json.JSONDecodeError) as exc:
        return None, f"unreadable: {exc}"
    version = document.get("version")
    if version != CHECKPOINT_VERSION:
        return None, f"version {version!r} != {CHECKPOINT_VERSION}"
    digest = document.get("digest")
    if digest is None:
        return None, "no digest (unverifiable payload)"
    if digest != _document_digest(document):
        return None, "digest mismatch (corrupt payload)"
    return document, None


def load_checkpoint(directory: str,
                    expect_key: Optional[str] = None) -> Checkpoint:
    """Load the newest *valid* snapshot under ``directory``.

    Tries the canonical file first, then rotated snapshots newest
    first, skipping anything torn, corrupt, or version-mismatched
    (each skip is counted; a successful skip-then-load increments
    ``faults.recovered.checkpoint.fallback``).  A snapshot that
    verifies but belongs to a different fleet is a hard refusal, not a
    fallback — resuming the wrong population must never "recover".
    """
    candidates = [checkpoint_path(directory)]
    candidates += [rotated_path(directory, seq)
                   for seq in reversed(rotated_sequences(directory))]
    registry = get_registry()
    failures: List[str] = []
    seen_payloads = set()
    for path in candidates:
        document, reason = _parse_snapshot(path)
        if document is None:
            if reason != "missing":
                failures.append(f"{os.path.basename(path)}: {reason}")
            continue
        if document["digest"] in seen_payloads:
            continue
        seen_payloads.add(document["digest"])
        if expect_key is not None and document["population"] != expect_key:
            raise CheckpointError(
                "checkpoint belongs to a different fleet (seed, mix, "
                "code version or lossy fault plan mismatch); refusing "
                "to merge incompatible populations")
        if failures:
            registry.inc("checkpoint.fallback", len(failures))
            registry.inc("faults.recovered.checkpoint.fallback")
        cursors: Dict[int, int] = {int(index): int(ingested)
                                   for index, ingested
                                   in document["cursors"].items()}
        try:
            aggregate = FleetAggregate.from_dict(document["aggregate"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{os.path.basename(path)}: malformed aggregate: {exc}")
        return Checkpoint(
            aggregate=aggregate,
            completed=[int(index) for index in document["completed"]],
            cursors=cursors,
            population_key=document["population"],
            households=int(document["households"]),
            segments_folded=int(document.get("segments_folded", 0)),
        )
    if failures:
        raise CheckpointError(
            f"no valid checkpoint under {directory}: "
            + "; ".join(failures))
    raise CheckpointError(f"no checkpoint at {checkpoint_path(directory)}")

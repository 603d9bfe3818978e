"""Fault injection transforms and the quarantine (salvage) decoder.

Two halves:

* **Injection** — pure, deterministic transforms driven by a
  :class:`~repro.faults.plan.FaultPlan`: tamper a pcap segment
  (truncate mid-record / corrupt one frame header) or spend bounded
  retry attempts where a worker would crash or hang.  Injected
  pcap damage is constructed so the columnar decode and the lazy
  reference decoder both detect it (a structural ``PcapError`` or a
  frame ``ValueError``) before any pipeline state mutates — which is what lets the ingest layer
  quarantine and re-apply safely.

* **Salvage** — :func:`salvage_pcap_bytes`, the hardening that turns a
  corrupt capture from an abort into a counted degradation: walk the
  record stream tolerantly, probe every frame with the same defensive
  decode the analysis pipeline uses, keep the good records
  byte-for-byte, and report each dropped record with evidence (index + reason).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from ..net.packet import LazyPacket
from ..net.pcap import GLOBAL_HEADER, RECORD_HEADER, PcapError, \
    parse_global_header
from ..obs.metrics import get_registry
from .plan import FaultPlan

_NS_PER_US = 1_000
_NS_PER_S = 1_000_000_000

#: Record-length sanity bound for the tolerant salvage walk (matches
#: the strict readers' "implausible record length" ceiling at the
#: maximum snaplen).
_MAX_RECORD_LEN = 65535 + 65536


def produce_with_retries(plan: FaultPlan, coords: Tuple, produce):
    """Run ``produce()`` under bounded injected crash/hang retries.

    Each attempt first consults the oracle for ``worker.crash`` and
    ``worker.hang`` at ``(coords, attempt)``; a firing site costs that
    attempt.  Counts ``faults.injected.worker.*`` and
    ``retry.worker.attempts`` per failed attempt and
    ``faults.recovered.worker.*`` once an attempt runs clean, and
    returns ``(result, sites that fired)`` so callers can convert each
    failure into its kind of virtual-time backoff.  Every task runs
    this inside itself, so the counters live in the task's metrics
    snapshot wherever it ran.
    """
    registry = get_registry()
    injected: List[str] = []
    attempt = 0
    while True:
        site = next((site for site in ("worker.crash", "worker.hang")
                     if plan.fires_bounded(site, attempt, *coords)),
                    None)
        if site is None:
            break
        injected.append(site)
        registry.inc(f"faults.injected.{site}")
        registry.inc("retry.worker.attempts")
        attempt += 1
    result = produce()
    for site in injected:
        registry.inc(f"faults.recovered.{site}")
    return result, injected


# -- pcap tampering -----------------------------------------------------------


def _record_spans(raw: bytes) -> List[Tuple[int, int]]:
    """(start, end) byte spans of every complete record, tolerantly
    (stops at the first structural break instead of raising)."""
    spans: List[Tuple[int, int]] = []
    position = GLOBAL_HEADER.size
    size = len(raw)
    header = RECORD_HEADER
    while position < size:
        if position + header.size > size:
            break
        incl_len = header.unpack_from(raw, position)[2]
        if incl_len > _MAX_RECORD_LEN:
            break
        end = position + header.size + incl_len
        if end > size:
            break
        spans.append((position, end))
        position = end
    return spans


def tamper_pcap_bytes(plan: FaultPlan, payload: bytes,
                      *coords) -> Tuple[bytes, List[str]]:
    """Apply the plan's pcap faults to one capture (segment) payload.

    Returns ``(payload, injected sites)`` — unchanged payload and an
    empty list when nothing fires.  Damage is deterministic in
    ``(plan seed, coords)``:

    * ``pcap.truncate`` cuts the stream mid-record at a drawn record,
      losing that record and everything after it (a torn capture tail);
    * ``pcap.corrupt`` rewrites one drawn record's frame to claim IPv4
      with an impossible version nibble, so every decoder rejects
      exactly that record.
    """
    injected: List[str] = []
    if not plan or len(payload) <= GLOBAL_HEADER.size:
        return payload, injected
    truncate = plan.fires("pcap.truncate", *coords)
    corrupt = plan.fires("pcap.corrupt", *coords)
    if not (truncate or corrupt):
        return payload, injected
    spans = _record_spans(payload)
    if not spans:
        return payload, injected
    registry = get_registry()
    if corrupt:
        pick = int(plan.draw("pcap.corrupt.record", *coords)
                   * len(spans))
        # The recipe needs 15 frame bytes; records are Ethernet frames
        # (>= 14 bytes on the wire), so scan forward for one that fits.
        for offset in range(len(spans)):
            start, end = spans[(pick + offset) % len(spans)]
            frame = start + RECORD_HEADER.size
            if end - frame >= 15:
                tampered = bytearray(payload)
                # Claim IPv4, then break the version nibble: both the
                # lazy and columnar decoders raise ValueError for this
                # exact frame and nothing else.
                tampered[frame + 12:frame + 14] = b"\x08\x00"
                tampered[frame + 14] = 0x0F
                payload = bytes(tampered)
                injected.append("pcap.corrupt")
                registry.inc("faults.injected.pcap.corrupt")
                break
    if truncate:
        start, end = spans[int(plan.draw("pcap.truncate.record",
                                         *coords) * len(spans))]
        length = end - start - RECORD_HEADER.size
        cut = start + RECORD_HEADER.size + length // 2 if length \
            else start + RECORD_HEADER.size // 2
        payload = payload[:cut]
        injected.append("pcap.truncate")
        registry.inc("faults.injected.pcap.truncate")
    return payload, injected


# -- salvage (quarantine-and-continue) ----------------------------------------


def _probe(timestamp: int, data: bytes) -> Optional[str]:
    """Reason string if this frame would fail analysis decode, else
    ``None``.  Mirrors the columnar decode's failure surface: LazyPacket
    field parse plus the in-place DNS parse for UDP datagrams."""
    try:
        packet = LazyPacket(timestamp, data)
        if packet.proto == 17:
            packet.dns
    except Exception as exc:  # noqa: BLE001 — any decode error quarantines
        return f"{type(exc).__name__}: {exc}"
    return None


def salvage_pcap_bytes(raw: bytes) -> Tuple[bytes, List[Tuple[int, str]]]:
    """Split a damaged pcap into its decodable part plus evidence.

    Returns ``(clean, drops)`` where ``clean`` is a valid pcap holding
    every record that decodes (byte-identical slices of the original —
    never re-encoded) and ``drops`` lists ``(record index, reason)``
    for each quarantined record (index ``-1`` marks an unusable global
    header).  A structural break (truncated header/data) ends the walk:
    framing past the break cannot be trusted, so the remaining records
    are reported as a single drop at the break's index.

    ``salvage(raw) == (raw, [])`` for any capture the columnar decode
    accepts, so routing a *healthy* segment through here is a no-op.
    """
    try:
        swapped, snaplen, __ = parse_global_header(raw)
    except PcapError as exc:
        return b"", [(-1, f"unusable global header: {exc}")]
    header_size = RECORD_HEADER.size
    unpack = struct.Struct(">IIII" if swapped else "<IIII").unpack_from
    # Same acceptance bound as the strict readers, so a salvaged
    # payload re-decodes without a second rejection pass.
    max_record_len = snaplen + 65536
    size = len(raw)
    good: List[bytes] = [bytes(raw[:GLOBAL_HEADER.size])]
    drops: List[Tuple[int, str]] = []
    position = GLOBAL_HEADER.size
    index = 0
    while position < size:
        if position + header_size > size:
            drops.append((index, "truncated pcap record header"))
            break
        ts_sec, ts_usec, incl_len, __ = unpack(raw, position)
        if incl_len > max_record_len:
            drops.append((index,
                          f"implausible record length: {incl_len}"))
            break
        end = position + header_size + incl_len
        if end > size:
            drops.append((index, "truncated pcap record data"))
            break
        timestamp = ts_sec * _NS_PER_S + ts_usec * _NS_PER_US
        reason = _probe(timestamp, bytes(raw[position + header_size:end]))
        if reason is None:
            good.append(bytes(raw[position:end]))
        else:
            drops.append((index, reason))
        position = end
        index += 1
    return b"".join(good), drops


def degradation_evidence(label: str, household_index: int,
                         segment_seq: Optional[int], record_index: int,
                         reason: str) -> str:
    """The canonical evidence string one quarantined record reports.

    Stable and self-contained — household identity, capture label,
    segment and record coordinates, and the decode failure — so
    degradation records aggregate (and dedupe) as plain Counter keys
    and render verbatim in the report and metrics export.  Since the
    findings model became the source of truth this is a thin view over
    :meth:`repro.findings.Finding.degradation`; the one formatter lives
    there so the text and the structured evidence can never drift.
    """
    from ..findings import Finding
    finding = Finding.degradation(label, household_index, segment_seq,
                                  record_index, reason)
    return finding.evidence[0].text

"""Cross-module property-based tests on core invariants.

These complement the per-module property tests: they exercise whole
sub-stacks (codec compositions, flow accounting, batch codec, timelines)
and the merge laws of every mergeable result under hypothesis-generated
inputs.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acr import Capture, FingerprintBatch, bands_of, hamming_distance
from repro.analysis import Timeline, cumulative_bytes, packets_per_ms
from repro.findings import Evidence, Finding, FindingsLedger
from repro.fleet import FleetAggregate
from repro.net import (CapturedPacket, FlowTable, Ipv4Address, MacAddress,
                       TcpSegment, decode_all, decode_packet, dump_bytes,
                       load_bytes)
from repro.net.checksum import incremental_update, internet_checksum
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.ip import PROTO_TCP, PROTO_UDP, Ipv4Packet
from repro.net.packet import LazyPacket
from repro.net.tcp import FLAG_ACK
from repro.net.udp import UdpDatagram
from repro.obs.metrics import MetricsRegistry

MAC_A = MacAddress.parse("02:00:00:00:00:01")
MAC_B = MacAddress.parse("02:00:00:00:00:02")

addresses = st.integers(min_value=1, max_value=(1 << 32) - 2).map(
    Ipv4Address)
ports = st.integers(min_value=1, max_value=65535)


def _frame(src_ip, dst_ip, sport, dport, payload):
    segment = TcpSegment(sport, dport, 1, 2, FLAG_ACK, payload=payload)
    ip = Ipv4Packet(src_ip, dst_ip, PROTO_TCP,
                    segment.encode(src_ip, dst_ip))
    return EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4,
                         ip.encode()).encode()


class TestFullStackCodec:
    @given(addresses, addresses, ports, ports,
           st.binary(max_size=1200),
           st.integers(min_value=0, max_value=2 ** 50))
    @settings(max_examples=60)
    def test_compose_decode_roundtrip(self, src, dst, sport, dport,
                                      payload, ts):
        packet = CapturedPacket(ts, _frame(src, dst, sport, dport,
                                           payload))
        decoded = decode_packet(packet)
        assert decoded.src_ip == src
        assert decoded.dst_ip == dst
        assert decoded.src_port == sport
        assert decoded.dst_port == dport
        assert decoded.transport_payload == payload

    @given(st.lists(st.tuples(addresses, addresses, ports, ports,
                              st.binary(max_size=200)),
                    min_size=1, max_size=30))
    @settings(max_examples=30)
    def test_pcap_never_loses_packets(self, items):
        packets = [CapturedPacket(i * 1000,
                                  _frame(src, dst, sport, dport, payload))
                   for i, (src, dst, sport, dport, payload)
                   in enumerate(items)]
        assert len(load_bytes(dump_bytes(packets))) == len(packets)

    @given(st.lists(st.tuples(addresses, addresses, ports, ports),
                    min_size=1, max_size=40))
    @settings(max_examples=30)
    def test_flow_bytes_conserved(self, tuples):
        """Sum of per-flow bytes equals total capture bytes."""
        packets = [CapturedPacket(i, _frame(src, dst, sport, dport, b"x"))
                   for i, (src, dst, sport, dport) in enumerate(tuples)]
        decoded = decode_all(packets)
        table = FlowTable()
        table.add_all(decoded)
        assert sum(f.total_bytes for f in table.flows) == \
            sum(p.length for p in decoded)

    @given(st.lists(st.tuples(addresses, addresses, ports, ports),
                    min_size=1, max_size=40))
    @settings(max_examples=20)
    def test_flow_direction_symmetry(self, tuples):
        """A->B and B->A land in the same flow."""
        tuples = [(src, dst, sport, dport)
                  for src, dst, sport, dport in tuples
                  if (src.value, sport) != (dst.value, dport)]
        if not tuples:
            return
        packets = []
        for i, (src, dst, sport, dport) in enumerate(tuples):
            packets.append(CapturedPacket(
                2 * i, _frame(src, dst, sport, dport, b"x")))
            packets.append(CapturedPacket(
                2 * i + 1, _frame(dst, src, dport, sport, b"y")))
        table = FlowTable()
        table.add_all(decode_all(packets))
        for flow in table.flows:
            assert flow.packets_ab > 0 and flow.packets_ba > 0


def _udp_frame(src_ip, dst_ip, sport, dport, payload):
    datagram = UdpDatagram(sport, dport, payload)
    ip = Ipv4Packet(src_ip, dst_ip, PROTO_UDP,
                    datagram.encode(src_ip, dst_ip))
    return EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4,
                         ip.encode()).encode()


def _outcome(tier, data):
    """(flow key tuple) on success, or the exception type on failure."""
    try:
        packet = tier(CapturedPacket(7, data))
    except ValueError:
        return ValueError
    return (packet.src_ip, packet.dst_ip, packet.src_port,
            packet.dst_port, packet.flow_proto, packet.length)


class TestLazyVsFullDecode:
    """The lazy tier must be observationally identical to the full
    decoder: same flow keys and lengths on well-formed frames, and the
    same raise-vs-tolerate behaviour on truncated or mutated bytes."""

    @given(addresses, addresses, ports, ports, st.binary(max_size=600),
           st.booleans())
    @settings(max_examples=60)
    def test_flow_keys_match_on_wellformed_frames(self, src, dst, sport,
                                                  dport, payload, use_udp):
        frame = (_udp_frame if use_udp else _frame)(
            src, dst, sport, dport, payload)
        assert _outcome(lambda p: LazyPacket(p.timestamp, p.data),
                        frame) == _outcome(decode_packet, frame)

    @given(addresses, addresses, ports, ports, st.binary(max_size=300),
           st.data())
    @settings(max_examples=80)
    def test_truncation_raises_identically(self, src, dst, sport, dport,
                                           payload, data):
        frame = _frame(src, dst, sport, dport, payload)
        cut = data.draw(st.integers(min_value=0,
                                    max_value=len(frame) - 1))
        truncated = frame[:cut]
        lazy = _outcome(lambda p: LazyPacket(p.timestamp, p.data),
                        truncated)
        full = _outcome(decode_packet, truncated)
        assert (lazy == ValueError) == (full == ValueError)
        if lazy != ValueError:
            assert lazy == full

    @given(addresses, addresses, ports, ports, st.binary(max_size=200),
           st.data())
    @settings(max_examples=80)
    def test_mutation_raises_identically(self, src, dst, sport, dport,
                                         payload, data):
        """Mutations in the layers the lazy tier parses (Ethernet + the
        IPv4 header) must raise identically; anywhere deeper the lazy
        tier may only be *more* tolerant (it defers transport decode),
        never stricter."""
        frame = bytearray(_frame(src, dst, sport, dport, payload))
        index = data.draw(st.integers(min_value=0,
                                      max_value=len(frame) - 1))
        value = data.draw(st.integers(min_value=0, max_value=255))
        frame[index] = value
        mutated = bytes(frame)
        lazy = _outcome(lambda p: LazyPacket(p.timestamp, p.data),
                        mutated)
        full = _outcome(decode_packet, mutated)
        if lazy == ValueError:
            assert full == ValueError
        elif full != ValueError:
            assert lazy == full

    @given(addresses, addresses, ports, st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1,
        max_size=20))
    @settings(max_examples=30)
    def test_dns_views_agree(self, src, dst, sport, label):
        from repro.net.dns import DnsMessage
        query = DnsMessage.query(7, f"{label}.example")
        frame = _udp_frame(src, dst, sport, 53, query.encode())
        lazy = LazyPacket(11, frame)
        full = decode_packet(CapturedPacket(11, frame))
        assert lazy.dns is not None and full.dns is not None
        assert [q.name for q in lazy.dns.questions] == \
            [q.name for q in full.dns.questions]


class TestIncrementalChecksum:
    """RFC 1624 incremental update vs recompute-from-scratch."""

    @given(st.binary(min_size=2, max_size=120).filter(
        lambda b: len(b) % 2 == 0), st.data())
    @settings(max_examples=120)
    def test_patch_equals_recompute(self, header, data):
        offset = data.draw(st.integers(
            min_value=0, max_value=len(header) // 2 - 1)) * 2
        width = data.draw(st.integers(
            min_value=1, max_value=(len(header) - offset) // 2)) * 2
        new_bytes = data.draw(st.binary(min_size=width, max_size=width))
        patched = header[:offset] + new_bytes + header[offset + width:]
        if not any(patched):
            return  # the all-zero buffer is the documented exclusion
        original = internet_checksum(header)
        updated = incremental_update(
            original, header[offset:offset + width], new_bytes)
        assert updated == internet_checksum(patched)

    @given(st.binary(min_size=20, max_size=60).filter(
        lambda b: len(b) % 2 == 0 and any(b)), st.data())
    @settings(max_examples=60)
    def test_patch_chain_equals_recompute(self, header, data):
        """Several successive patches accumulate correctly."""
        current = bytearray(header)
        checksum = internet_checksum(bytes(current))
        for __ in range(data.draw(st.integers(min_value=1, max_value=4))):
            offset = data.draw(st.integers(
                min_value=0, max_value=len(current) // 2 - 1)) * 2
            new_word = data.draw(st.binary(min_size=2, max_size=2))
            old_word = bytes(current[offset:offset + 2])
            current[offset:offset + 2] = new_word
            if not any(current):
                return
            checksum = incremental_update(checksum, old_word, new_word)
            assert checksum == internet_checksum(bytes(current))


class TestFingerprintProperties:
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=63))
    @settings(max_examples=100)
    def test_banding_pigeonhole(self, base, bit):
        """Any 1-bit corruption still shares 3 of 4 bands."""
        corrupted = base ^ (1 << bit)
        shared = sum(1 for a, b in zip(bands_of(base), bands_of(corrupted))
                     if a == b)
        assert shared == 3
        assert hamming_distance(base, corrupted) == 1

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=2 ** 31),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1),
                 max_size=10)), max_size=20),
        st.text(alphabet="abcdef0123456789-", min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_batch_codec_roundtrip(self, captures_data, device_id):
        captures = [Capture(offset * 1_000_000, video, audio)
                    for offset, video, audio in captures_data]
        batch = FingerprintBatch(device_id, captures)
        decoded = FingerprintBatch.decode(batch.encode())
        assert decoded.device_id == device_id
        assert [c.video_hash for c in decoded.captures] == \
            [c.video_hash for c in captures]
        assert [c.audio_hashes for c in decoded.captures] == \
            [c.audio_hashes for c in captures]


class TestAnalysisProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10 ** 12),
                    min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_timeline_total_equals_in_window_count(self, timestamps):
        packets = [CapturedPacket(ts, _frame(
            Ipv4Address.parse("10.0.0.1"), Ipv4Address.parse("10.0.0.2"),
            1000, 2000, b"")) for ts in timestamps]
        decoded = decode_all(packets)
        start, end = 0, 10 ** 12 + 1
        timeline = packets_per_ms(decoded, start, end)
        assert timeline.total_packets == len(decoded)

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 11),
                    min_size=1, max_size=100),
           st.integers(min_value=2, max_value=50))
    @settings(max_examples=30)
    def test_rebin_preserves_mass(self, timestamps, factor):
        packets = decode_all([CapturedPacket(ts, _frame(
            Ipv4Address.parse("10.0.0.1"), Ipv4Address.parse("10.0.0.2"),
            1000, 2000, b"")) for ts in timestamps])
        timeline = packets_per_ms(packets, 0, 10 ** 11 + 1)
        # Rebinning can only drop packets in the truncated tail remainder.
        coarse = timeline.rebin(factor)
        tail = timeline.counts[len(coarse.counts) * factor:].sum()
        assert coarse.total_packets + tail == timeline.total_packets

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 11),
                    min_size=1, max_size=100))
    @settings(max_examples=30)
    def test_cumulative_curve_invariants(self, timestamps):
        packets = decode_all([CapturedPacket(ts, _frame(
            Ipv4Address.parse("10.0.0.1"), Ipv4Address.parse("10.0.0.2"),
            1000, 2000, b"")) for ts in timestamps])
        curve = cumulative_bytes(packets, 0, 10 ** 11 + 1)
        assert curve.total_bytes == sum(p.length for p in packets)
        diffs = np.diff(curve.cumulative_bytes)
        assert (diffs >= 0).all()
        fractions = curve.fraction_curve()
        assert fractions[-1] == pytest.approx(1.0)



# -- merge laws of the three mergeable results --------------------------------


def _summary(vendor, opted_in, acr_bytes, degraded):
    """A household summary as ``FleetAggregate.fold`` consumes it."""
    return {
        "vendor": vendor, "country": "uk", "phase": "LIn-OIn",
        "diary": "binge", "opted_in": opted_in, "packets": 10,
        "pcap_len": 800, "acr_bytes": acr_bytes,
        "acr_domains": ["eu-acr4.alphonso.tv"] if acr_bytes else [],
        "acr_upload_bytes": acr_bytes // 2,
        "acr_packets": 2 if acr_bytes else 0,
        "acr_bursts": 1 if acr_bytes else 0,
        "cadence_sum_ns": 0, "cadence_intervals": 0,
        "label": "hh", "index": 0,
        "findings": [Finding.degradation("hh", 0, None, 3, "torn")]
        if degraded else [],
    }


def _folded(summaries):
    aggregate = FleetAggregate()
    for summary in summaries:
        aggregate.fold(summary)
    return aggregate


def _finding(code, severity, passed, household):
    return Finding(code=code, title=f"check {code}", severity=severity,
                   confidence=0.9, passed=passed,
                   evidence=(Evidence(text="seen", household=household),))


def _snapshot(counters, gauges, observations):
    registry = MetricsRegistry()
    for name, amount in counters:
        registry.inc(name, amount)
    for name, value in gauges:
        registry.gauge_max(name, value)
    for name, value in observations:
        registry.observe(name, float(value))
    return registry.snapshot()


def _absorbed(*snapshots):
    """Metrics snapshots merge through ``MetricsRegistry.absorb``."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.absorb(snapshot)
    return registry.snapshot()


_metric_names = st.sampled_from(["a", "b"])

#: name -> (values, merge, identity, serialize, deserialize).  Histogram
#: observations are small integers so float sums are exact under any
#: grouping.
MERGEABLES = {
    "aggregate": (
        st.lists(st.builds(_summary, st.sampled_from(["lg", "samsung"]),
                           st.booleans(),
                           st.sampled_from([0, 500, 1500]),
                           st.booleans()),
                 max_size=4).map(_folded),
        FleetAggregate.merge, FleetAggregate(), FleetAggregate.to_dict,
        FleetAggregate.from_dict),
    "ledger": (
        st.lists(st.builds(_finding, st.sampled_from(["S1", "DEG"]),
                           st.sampled_from(["low", "critical"]),
                           st.booleans(), st.sampled_from([None, 0, 1])),
                 max_size=6).map(FindingsLedger),
        FindingsLedger.merge, FindingsLedger(),
        FindingsLedger.to_jsonable, FindingsLedger.from_jsonable),
    "metrics": (
        st.builds(_snapshot,
                  st.lists(st.tuples(_metric_names, st.integers(0, 5)),
                           max_size=3),
                  st.lists(st.tuples(_metric_names, st.integers(0, 9)),
                           max_size=3),
                  st.lists(st.tuples(_metric_names,
                                     st.integers(0, 60000)),
                           max_size=3)),
        _absorbed, _absorbed(), dict, _absorbed),
}


class TestMergeLaws:
    """Shard results combine in any order, and checkpoints and exports
    restore them exactly: the basis of every jobs-invariance and resume
    claim."""

    @pytest.mark.parametrize("kind", sorted(MERGEABLES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_merge_laws(self, kind, data):
        values, merge, identity, dump, load = MERGEABLES[kind]
        a, b, c = (data.draw(values) for __ in range(3))
        assert merge(a, identity) == a == merge(identity, a)
        assert merge(a, b) == merge(b, a)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))
        assert load(json.loads(json.dumps(dump(a)))) == a

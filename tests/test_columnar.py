"""Equivalence tests for the columnar decode.

The columnar decode (:mod:`repro.net.columnar`) is the production
decode, and it must answer exactly like the reference pipeline built
from object-decoded packets: every query the audit pipeline answers —
domains, byte totals, flow tables, upload timestamps, CDF curves — is
identical under hypothesis-generated captures, including malformed/
snaplen-clipped frames (same errors as the ``LazyPacket`` reference,
same order) and arbitrary segment cuts (incremental == batch).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AuditPipeline
from repro.analysis.cdf import cumulative_bytes
from repro.analysis.pipeline import ColumnarAuditPipeline
from repro.net import (CapturedPacket, ColumnarCapture, ColumnarSlice,
                       DnsMessage, DnsRecord, EthernetFrame, Ipv4Address,
                       MacAddress, PcapError, TcpSegment, decode_all,
                       dump_bytes, lazy_decode_all, load_bytes)
from repro.net.packet import build_tcp_frame, build_udp_frame

MAC_TV = MacAddress.parse("02:00:00:00:00:01")
MAC_GW = MacAddress.parse("02:00:00:00:00:02")

TV = Ipv4Address.parse("192.168.1.2")
GW = Ipv4Address.parse("192.168.1.1")
RESOLVER = Ipv4Address.parse("8.8.8.8")
REMOTES = [Ipv4Address.parse(f"203.0.113.{i}") for i in range(1, 6)]
NAMES = ["acr1.example.com", "tracker.example.net", "cdn.example.org"]

ports = st.integers(min_value=1024, max_value=65535)

#: One capture event: protocol, remote index, TV-originated?, port, payload.
events = st.lists(
    st.one_of(
        st.tuples(st.just("tcp"), st.integers(0, 4), st.booleans(),
                  ports, st.binary(max_size=120)),
        st.tuples(st.just("udp"), st.integers(0, 4), st.booleans(),
                  ports, st.binary(max_size=120)),
        st.tuples(st.just("dns"), st.integers(0, 2), st.integers(0, 4)),
        st.tuples(st.just("arp"), st.booleans()),
        st.tuples(st.just("noise"), st.integers(0, 4),
                  st.binary(max_size=40)),
    ),
    max_size=40)


def _frames(items):
    """Expand events into a well-formed mixed capture."""
    packets = []
    for i, event in enumerate(items):
        ts = (i + 1) * 1_000_000  # whole microseconds survive pcap
        kind = event[0]
        if kind == "tcp":
            __, remote, from_tv, port, payload = event
            src, dst = (TV, REMOTES[remote]) if from_tv \
                else (REMOTES[remote], TV)
            sport, dport = (port, 443) if from_tv else (443, port)
            packets.append(CapturedPacket(ts, build_tcp_frame(
                MAC_TV, MAC_GW, src, dst,
                TcpSegment(sport, dport, i, 2, 0x18, payload=payload),
                identification=i & 0xFFFF)))
        elif kind == "udp":
            __, remote, from_tv, port, payload = event
            src, dst = (TV, REMOTES[remote]) if from_tv \
                else (REMOTES[remote], TV)
            packets.append(CapturedPacket(ts, build_udp_frame(
                MAC_TV, MAC_GW, src, dst, port, 7777, payload)))
        elif kind == "dns":
            __, name, remote = event
            query = DnsMessage.query(i & 0xFFFF, NAMES[name])
            answer = DnsMessage.response(
                query, [DnsRecord.a(NAMES[name], REMOTES[remote])])
            packets.append(CapturedPacket(ts, build_udp_frame(
                MAC_GW, MAC_TV, RESOLVER, TV, 53, 40000,
                answer.encode())))
        elif kind == "arp":
            __, long = event
            # The long form takes the vectorized non-IP path; the short
            # one (< 38 bytes) must fall back to the reference decoder.
            payload = b"\x00" * (28 if long else 10)
            packets.append(CapturedPacket(ts, EthernetFrame(
                MAC_GW, MAC_TV, 0x0806, payload).encode()))
        else:  # noise: LAN traffic that never touches the TV
            __, remote, payload = event
            packets.append(CapturedPacket(ts, build_udp_frame(
                MAC_GW, MAC_GW, GW, REMOTES[remote], 5353, 5353,
                payload)))
    return packets


def _reference(raw, tv=TV):
    """The oracle: the base pipeline over object-decoded packets."""
    return AuditPipeline(decode_all(load_bytes(raw)), tv)


def _lazy_reference(raw, tv=TV):
    """The base pipeline over ``LazyPacket`` rows, whose error messages
    the columnar decode reproduces."""
    return AuditPipeline(lazy_decode_all(load_bytes(raw)), tv)


def _columnar(raw, tv=TV):
    return AuditPipeline.from_pcap_bytes(raw, tv)


#: Every way a capture is decoded: the production decode plus both
#: reference decoders.
DECODERS = (_reference, _lazy_reference, _columnar)


def _flow_stats(pipeline):
    return {flow.key: (flow.packets_ab, flow.packets_ba,
                       flow.bytes_ab, flow.bytes_ba)
            for flow in pipeline.flows.flows}


def _assert_queries_agree(reference, columnar):
    domains = sorted(set(
        list(reference._domain_index()) + ["ghost.example"]))
    assert columnar.contacted_domains == reference.contacted_domains
    assert columnar.byte_totals() == reference.byte_totals()
    for domain in domains:
        assert columnar.bytes_for(domain) == reference.bytes_for(domain)
        assert columnar.bytes_sent_to(domain) == \
            reference.bytes_sent_to(domain)
        assert columnar.packet_count_for(domain) == \
            reference.packet_count_for(domain)
        mine = columnar.packets_for(domain)
        theirs = reference.packets_for(domain)
        assert [p.timestamp for p in mine] == \
            [p.timestamp for p in theirs]
    assert columnar.upload_timestamps(domains) == \
        reference.upload_timestamps(domains)
    assert [p.timestamp for p in columnar.packets_for_all(domains)] == \
        [p.timestamp for p in reference.packets_for_all(domains)]
    assert _flow_stats(columnar) == _flow_stats(reference)


class TestRowEquivalence:
    """Every row field matches ``LazyPacket``, byte for byte."""

    @given(events)
    @settings(max_examples=40, deadline=None)
    def test_fields_match_lazy_tier(self, items):
        packets = _frames(items)
        raw = dump_bytes(packets)
        capture = ColumnarCapture.from_pcap_bytes(raw)
        lazy = lazy_decode_all(load_bytes(raw))
        assert len(capture) == len(lazy)
        for view, ref in zip(capture, lazy):
            assert view.timestamp == ref.timestamp
            assert view.length == ref.length
            assert bytes(view.data) == bytes(ref.data)
            assert view.src_ip == ref.src_ip
            assert view.dst_ip == ref.dst_ip
            assert view.src_port == ref.src_port
            assert view.dst_port == ref.dst_port
            assert view.proto == ref.proto
            assert view.flow_proto == ref.flow_proto
            assert bytes(view.transport_payload) == \
                bytes(ref.transport_payload)
            mine, theirs = view.dns, ref.dns
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert mine.encode() == theirs.encode()

    def test_ipv4_options_row_takes_the_reference_path(self):
        # IHL > 20 defeats the vectorized gather; the row must fall
        # back to the LazyPacket reference and still agree exactly.
        from repro.net.packet import LazyPacket
        plain = build_udp_frame(MAC_TV, MAC_GW, TV, REMOTES[0],
                                40000, 7777, b"options")
        framed = bytearray(plain)
        framed[14] = 0x46  # IHL = 24
        framed[16:18] = (int.from_bytes(plain[16:18], "big")
                         + 4).to_bytes(2, "big")
        framed[34:34] = b"\x00\x00\x00\x00"  # the option bytes
        raw = dump_bytes([CapturedPacket(1_000_000, bytes(framed))])
        view = ColumnarCapture.from_pcap_bytes(raw)[0]
        ref = LazyPacket(1_000_000, bytes(framed))
        assert view.src_ip == ref.src_ip
        assert view.dst_ip == ref.dst_ip
        assert (view.src_port, view.dst_port) == (ref.src_port,
                                                  ref.dst_port)
        assert bytes(view.transport_payload) == ref.transport_payload

    @given(events)
    @settings(max_examples=20, deadline=None)
    def test_infer_tv_ip_matches_object_tier(self, items):
        from repro.analysis.pipeline import infer_tv_ip
        packets = _frames(items)
        raw = dump_bytes(packets)
        capture = ColumnarCapture.from_pcap_bytes(raw)
        try:
            expected = infer_tv_ip(decode_all(load_bytes(raw)))
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                capture.infer_tv_ip()
        else:
            assert capture.infer_tv_ip() == expected


class TestPipelineEquivalence:
    @given(events)
    @settings(max_examples=30, deadline=None)
    def test_queries_identical_across_all_tiers(self, items):
        raw = dump_bytes(_frames(items))
        _assert_queries_agree(_reference(raw), _columnar(raw))

    @given(events, st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_cdf_curves_identical(self, items, sent_only):
        raw = dump_bytes(_frames(items))
        reference = _reference(raw)
        domains = sorted(reference._domain_index())
        window = (0, 60 * 1_000_000_000)
        sender = TV if sent_only else None
        expected, curve = [
            cumulative_bytes(pipeline.packets_for_all(domains), *window,
                             sent_only_from=sender)
            for pipeline in (reference, _columnar(raw))]
        assert np.array_equal(curve.times_s, expected.times_s)
        assert np.array_equal(curve.cumulative_bytes,
                              expected.cumulative_bytes)
        assert curve.total_bytes == expected.total_bytes

    def test_unknown_domain_compares_equal_to_empty_list(self):
        raw = dump_bytes(_frames([("tcp", 0, True, 5000, b"x")]))
        pipeline = AuditPipeline.from_pcap_bytes(raw, TV)
        assert isinstance(pipeline, ColumnarAuditPipeline)
        assert pipeline.packets_for("ghost.example") == []


class TestIncrementalSegments:
    @given(events, st.lists(st.integers(0, 40), max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_segment_cuts_equal_batch(self, items, cuts):
        packets = _frames(items)
        bounds = sorted({min(cut, len(packets)) for cut in cuts}
                        | {0, len(packets)})
        segments = [dump_bytes(packets[lo:hi])
                    for lo, hi in zip(bounds[:-1], bounds[1:])] \
            or [dump_bytes([])]
        grown = AuditPipeline.incremental(TV)
        assert isinstance(grown, ColumnarAuditPipeline)
        assert sum(grown.extend_pcap_bytes(segment)
                   for segment in segments) == len(packets)
        batch = AuditPipeline.from_pcap_bytes(dump_bytes(packets), TV)
        reference = AuditPipeline((), TV)
        for segment in segments:
            reference.extend(decode_all(load_bytes(segment)))
        _assert_queries_agree(reference, grown)
        _assert_queries_agree(batch, grown)

    def test_columnar_pipeline_rejects_object_extend(self):
        pipeline = AuditPipeline.incremental(TV)
        with pytest.raises(TypeError, match="extend_pcap_bytes"):
            pipeline.extend([])


class TestErrorSurface:
    def test_snaplen_clipped_frame_raises_lazy_message(self):
        import io
        from repro.net import PcapWriter
        frame = build_tcp_frame(MAC_TV, MAC_GW, TV, REMOTES[0],
                                TcpSegment(5000, 443, 1, 2, 0x18,
                                           payload=b"p" * 400))
        buffer = io.BytesIO()
        PcapWriter(buffer, snaplen=60).write(
            CapturedPacket(1_000_000, frame))
        raw = buffer.getvalue()
        with pytest.raises(ValueError) as lazy_err:
            _lazy_reference(raw)
        with pytest.raises(ValueError) as columnar_err:
            _columnar(raw)
        assert str(columnar_err.value) == str(lazy_err.value)

    @pytest.mark.parametrize("clip", [20, 40, 64])
    def test_short_frames_raise_identical_messages(self, clip):
        frame = build_udp_frame(MAC_TV, MAC_GW, TV, REMOTES[1],
                                40000, 7777, b"y" * 100)
        raw = dump_bytes([CapturedPacket(1_000_000, frame[:clip])])
        errors = []
        for decode in (_lazy_reference, _columnar):
            with pytest.raises(ValueError) as excinfo:
                decode(raw)
            errors.append(str(excinfo.value))
        assert errors[1] == errors[0]

    def test_first_bad_frame_wins(self):
        good = build_udp_frame(MAC_TV, MAC_GW, TV, REMOTES[0],
                               40000, 7777, b"ok")
        bad_ihl = bytearray(good)
        bad_ihl[14] = 0x41  # IHL = 4
        bad_version = bytearray(good)
        bad_version[14] = 0x65  # version 6
        raw = dump_bytes([
            CapturedPacket(1_000_000, good),
            CapturedPacket(2_000_000, bytes(bad_ihl)),
            CapturedPacket(3_000_000, bytes(bad_version))])
        for decode in (_lazy_reference, _columnar):
            with pytest.raises(ValueError, match="bad IHL: 4"):
                decode(raw)

    def test_pcap_error_precedes_frame_error(self):
        # The record walk finishes before any frame decodes in every
        # decoder, so a truncated trailing record must mask an earlier
        # malformed frame.
        bad = bytearray(build_udp_frame(MAC_TV, MAC_GW, TV, REMOTES[0],
                                        40000, 7777, b"zz"))
        bad[14] = 0x65
        raw = dump_bytes([CapturedPacket(1_000_000, bytes(bad)),
                          CapturedPacket(2_000_000, bad_frame_tail())])
        truncated = raw[:-4]
        for decode in DECODERS:
            with pytest.raises(PcapError, match="truncated pcap record"):
                decode(truncated)

    def test_implausible_record_length_matches_reader(self):
        raw = bytearray(dump_bytes(
            [CapturedPacket(1_000_000, b"\x00" * 20)]))
        raw[24 + 8:24 + 12] = (2 ** 31).to_bytes(4, "little")
        for decode in DECODERS:
            with pytest.raises(PcapError,
                               match="implausible record length"):
                decode(bytes(raw))


def bad_frame_tail() -> bytes:
    return build_udp_frame(MAC_TV, MAC_GW, TV, REMOTES[1],
                           40001, 7777, b"tail")


class TestColumnarSlice:
    def _slice(self):
        raw = dump_bytes(_frames([
            ("dns", 0, 0),
            ("tcp", 0, True, 5000, b"a"),
            ("tcp", 0, False, 5000, b"bb"),
            ("tcp", 0, True, 5001, b"ccc")]))
        return _columnar(raw).packets_for(NAMES[0])

    def test_len_iter_getitem(self):
        result = self._slice()
        assert len(result) == 3
        assert [p.length for p in result] == \
            [result[i].length for i in range(3)]
        tail = result[1:]
        assert isinstance(tail, ColumnarSlice)
        assert len(tail) == 2
        assert tail[0].timestamp == result[1].timestamp

    def test_equality(self):
        result = self._slice()
        assert result == result[:]
        assert not result == result[1:]
        assert _columnar(dump_bytes(_frames([]))).packets_for(
            "nothing") == []


@pytest.mark.slow
class TestRealCaptureTiers:
    """Columnar == reference on a genuine simulated experiment capture."""

    def test_experiment_capture_identical_across_tiers(
            self, lg_uk_linear_result):
        raw = lg_uk_linear_result.pcap_bytes
        tv = Ipv4Address.parse(lg_uk_linear_result.tv_ip)
        columnar = _columnar(raw, tv)
        assert isinstance(columnar, ColumnarAuditPipeline)
        _assert_queries_agree(_reference(raw, tv), columnar)
        assert ColumnarCapture.from_pcap_bytes(raw).infer_tv_ip() == tv

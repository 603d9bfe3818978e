"""Tests for the ACR client state machine, backend, and segmentation."""

import pytest

from repro.acr import (AcrBackend, AcrClient, AcrTransport, CaptureDecision,
                       FingerprintBatch, FingerprintMatcher,
                       ReferenceLibrary, SegmentProfiler, capture_decision,
                       capture_state, profile_for)
from repro.experiments.grid import warm_assets
from repro.media import (HdmiInput, HomeScreen, OttApp, PlayState,
                         ScreenCast, SourceType, Tuner, build_channel,
                         standard_library, ContentItem, ContentKind)
from repro.sim import minutes, seconds
from repro.testbed import assets, fresh_backend


@pytest.fixture(scope="module")
def library():
    return standard_library("uk", seed=3)


@pytest.fixture(scope="module")
def reference(library):
    ref = ReferenceLibrary()
    ref.ingest_all(library.reference_items)
    return ref


class RecordingTransport(AcrTransport):
    """Test double that records sends and feeds a backend."""

    def __init__(self, backend=None):
        self.backend = backend
        self.sends = []
        self.batches = []

    def send(self, at_ns, domain, request_bytes, response_bytes,
             request_plaintext=None, response_plaintext=None):
        self.sends.append((at_ns, domain, request_bytes, response_bytes))

    def deliver_batch(self, at_ns, domain, batch):
        self.batches.append((at_ns, domain, batch))
        if self.backend is None:
            return None
        return self.backend.ingest(batch, at_ns)


def _client(vendor, country, source, transport, enabled=True,
            domain="acr.test"):
    profile = profile_for(vendor, country)
    return AcrClient(
        device_id="tv-0001",
        profile=profile,
        enabled_fn=lambda: enabled,
        source_fn=lambda: source,
        transport=transport,
        domain_fn=lambda at: domain,
    )


def _run_ticks(client, count):
    interval = client.profile.batch_interval_ns
    for i in range(1, count + 1):
        client.batch_tick(i * interval)


class TestPolicyTable:
    @pytest.mark.parametrize("vendor", ["lg", "samsung"])
    @pytest.mark.parametrize("country", ["uk", "us"])
    def test_linear_and_hdmi_always_full(self, vendor, country):
        assert capture_decision(vendor, country, SourceType.TUNER) is \
            CaptureDecision.FULL
        assert capture_decision(vendor, country, SourceType.HDMI) is \
            CaptureDecision.FULL

    @pytest.mark.parametrize("vendor", ["lg", "samsung"])
    def test_fast_uk_vs_us(self, vendor):
        assert capture_decision(vendor, "uk", SourceType.FAST) is \
            CaptureDecision.BEACON
        assert capture_decision(vendor, "us", SourceType.FAST) is \
            CaptureDecision.FULL

    def test_ott_never_full(self):
        for vendor in ("lg", "samsung"):
            for country in ("uk", "us"):
                assert capture_decision(vendor, country, SourceType.OTT) \
                    is not CaptureDecision.FULL

    def test_samsung_us_silent_sources(self):
        assert capture_decision("samsung", "us", SourceType.OTT) is \
            CaptureDecision.SILENT
        assert capture_decision("samsung", "us", SourceType.CAST) is \
            CaptureDecision.SILENT

    def test_profiles_cadence(self):
        lg = profile_for("lg", "uk")
        samsung = profile_for("samsung", "uk")
        assert lg.batch_interval_ns == seconds(15)
        assert lg.captures_per_batch == 1500   # 10 ms captures
        assert samsung.batch_interval_ns == seconds(60)
        assert samsung.captures_per_batch == 120  # 500 ms captures

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            profile_for("philips", "uk")
        with pytest.raises(KeyError):
            profile_for("vizio", "de")  # registered vendor, bad country


class TestClientModes:
    def test_linear_sends_full_batches(self, library):
        channel = build_channel("C1", library)
        transport = RecordingTransport()
        client = _client("lg", "uk", Tuner(channel), transport)
        _run_ticks(client, 4)
        assert client.stats.full_batches == 4
        assert len(transport.sends) == 4
        # Full LG batch: 1500 captures x 12 B plus header.
        assert transport.sends[0][2] >= 1500 * 12

    def test_ott_sends_beacons_only(self, library):
        app = OttApp("netflix", [library.movies[0]])
        transport = RecordingTransport()
        client = _client("lg", "uk", app, transport)
        _run_ticks(client, 4)
        assert client.stats.beacons == 4
        assert client.stats.full_batches == 0
        assert transport.batches == []  # no fingerprints left the TV
        assert transport.sends[0][2] < 2000

    def test_beacon_peaks_every_minute(self, library):
        """LG: every 4th 15 s slot is a larger 'peak' beacon."""
        app = OttApp("netflix", [library.movies[0]])
        transport = RecordingTransport()
        client = _client("lg", "uk", app, transport)
        _run_ticks(client, 8)
        sizes = [send[2] for send in transport.sends]
        assert sizes[3] > sizes[0]
        assert sizes[7] > sizes[4]

    def test_opted_out_total_silence(self, library):
        channel = build_channel("C1", library)
        transport = RecordingTransport()
        client = _client("lg", "uk", Tuner(channel), transport,
                         enabled=False)
        _run_ticks(client, 8)
        assert transport.sends == []
        assert transport.batches == []
        assert client.stats.disabled_slots == 8

    def test_samsung_home_silent(self, library):
        ui = ContentItem("ui:home", "Home", ContentKind.UI, 86400, "news")
        transport = RecordingTransport()
        client = _client("samsung", "uk", HomeScreen(ui), transport)
        _run_ticks(client, 4)
        assert transport.sends == []
        assert client.stats.silent_slots == 4

    def test_cast_beacons_scaled_for_samsung(self, library):
        movie = library.movies[0]
        cast_transport = RecordingTransport()
        cast_client = _client("samsung", "uk", ScreenCast(movie),
                              cast_transport)
        ott_transport = RecordingTransport()
        ott_client = _client("samsung", "uk", OttApp("netflix", [movie]),
                             ott_transport)
        _run_ticks(cast_client, 2)
        _run_ticks(ott_client, 2)
        assert cast_transport.sends[0][2] > ott_transport.sends[0][2]


class TestBackoff:
    def test_samsung_backs_off_on_unrecognised_hdmi(self, library,
                                                    reference):
        backend = AcrBackend("samsung-ads", reference)
        transport = RecordingTransport(backend)
        hdmi = HdmiInput([library.game()], dwell_s=10000)
        client = _client("samsung", "uk", hdmi, transport)
        _run_ticks(client, 8)
        assert client.stats.skipped_backoff > 0
        assert client.stats.full_batches < 8

    def test_lg_does_not_back_off(self, library, reference):
        backend = AcrBackend("alphonso", reference)
        transport = RecordingTransport(backend)
        hdmi = HdmiInput([library.game()], dwell_s=10000)
        client = _client("lg", "uk", hdmi, transport)
        _run_ticks(client, 8)
        assert client.stats.skipped_backoff == 0
        assert client.stats.full_batches == 8

    def test_recognised_content_no_backoff(self, library, reference):
        backend = AcrBackend("samsung-ads", reference)
        transport = RecordingTransport(backend)
        channel = build_channel("C1", library)
        client = _client("samsung", "uk", Tuner(channel), transport)
        _run_ticks(client, 6)
        assert client.stats.skipped_backoff == 0
        assert client.stats.recognised > 0


class TestBackend:
    def test_viewing_events_accumulate(self, library, reference):
        backend = AcrBackend("alphonso", reference)
        transport = RecordingTransport(backend)
        channel = build_channel("C1", library)
        client = _client("lg", "uk", Tuner(channel), transport)
        _run_ticks(client, 8)
        events = backend.events_for("tv-0001")
        assert len(events) >= 6
        assert backend.recognition_rate > 0.7

    def test_sessions_merge_contiguous_content(self, library, reference):
        backend = AcrBackend("alphonso", reference)
        item = library.shows[0]
        for i in range(5):
            captures = [capture_state(PlayState(item, 30.0 + 15 * i + j))
                        for j in range(6)]
            backend.ingest(FingerprintBatch("tv-x", captures),
                           seconds(15) * i)
        sessions = backend.sessions_for("tv-x")
        assert len(sessions) == 1
        assert sessions[0].events == 5

    def test_session_gap_splits(self, library, reference):
        backend = AcrBackend("alphonso", reference)
        item = library.shows[0]
        captures = [capture_state(PlayState(item, 30.0 + j))
                    for j in range(6)]
        backend.ingest(FingerprintBatch("tv-x", captures), 0)
        backend.ingest(FingerprintBatch("tv-x", captures), minutes(10))
        assert len(backend.sessions_for("tv-x")) == 2

    def test_ingest_raw_roundtrip(self, library, reference):
        backend = AcrBackend("alphonso", reference)
        item = library.shows[3]
        captures = [capture_state(PlayState(item, 40.0 + j))
                    for j in range(6)]
        raw = FingerprintBatch("tv-y", captures).encode()
        verdict = backend.ingest_raw(raw, 0)
        assert verdict.recognised
        assert verdict.content_id == item.content_id

    def test_watch_seconds(self, library, reference):
        backend = AcrBackend("alphonso", reference)
        item = library.shows[0]
        for i in range(5):
            captures = [capture_state(PlayState(item, 30.0 + 15 * i + j))
                        for j in range(6)]
            backend.ingest(FingerprintBatch("tv-x", captures),
                           seconds(15) * i)
        assert backend.watch_seconds("tv-x") == pytest.approx(60.0)
        assert backend.watch_seconds("tv-x", item.content_id) == \
            pytest.approx(60.0)
        assert backend.watch_seconds("tv-x", "other") == 0.0


class TestSegments:
    def test_profile_from_viewing(self, library, reference):
        backend = AcrBackend("alphonso", reference)
        item = library.shows[0]
        # 40 recognised batches spanning > MIN_SEGMENT_SECONDS.
        for i in range(40):
            captures = [capture_state(PlayState(
                item, (30 + 15 * i + j) % item.duration_s))
                for j in range(6)]
            backend.ingest(FingerprintBatch("tv-x", captures),
                           seconds(15) * i)
        profiler = SegmentProfiler(backend, reference)
        profile = profiler.profile("tv-x")
        assert profile.genre_seconds  # some genre accumulated
        assert len(profile.segments) >= 1

    def test_empty_history_no_segments(self, reference):
        backend = AcrBackend("alphonso", reference)
        profiler = SegmentProfiler(backend, reference)
        profile = profiler.profile("ghost-tv")
        assert profile.segments == []
        assert profile.genre_seconds == {}


class TestSharedMatcher:
    """Backends over one country's reference library share its matcher."""

    def test_same_country_same_matcher(self):
        first = fresh_backend("lg", "uk")
        second = fresh_backend("samsung", "uk")
        assert first is not second
        assert first.matcher is second.matcher
        assert first.matcher.library is first.library
        assert fresh_backend("lg", "us").matcher is not first.matcher

    def test_index_built_once_per_country(self, monkeypatch):
        libraries = []
        original = FingerprintMatcher.reindex

        def counting(matcher):
            libraries.append(matcher.library)
            original(matcher)
        monkeypatch.setattr(FingerprintMatcher, "reindex", counting)
        assets.reference_matcher.cache_clear()
        warm_assets(countries=["uk"])
        assert libraries == [assets.reference_library("uk", 0)]
        for __ in range(4):
            for vendor in ("lg", "samsung", "roku"):
                for country in ("uk", "us"):
                    fresh_backend(vendor, country)
        assert libraries == [assets.reference_library("uk", 0),
                             assets.reference_library("us", 0)]

    def test_backend_state_stays_private(self, uk_library):
        watching = fresh_backend("lg", "uk")
        idle = fresh_backend("lg", "uk")
        assert watching.matcher is idle.matcher
        item = uk_library.shows[0]
        for i in range(3):
            captures = [capture_state(PlayState(item, 30.0 + 15 * i + j))
                        for j in range(6)]
            watching.ingest(FingerprintBatch("tv-x", captures),
                            seconds(15) * i)
        assert watching.batches_received == 3
        assert watching.batches_recognised == 3
        assert len(watching.sessions_for("tv-x")) == 1
        assert idle.batches_received == 0
        assert idle.batches_recognised == 0
        assert idle.events_for("tv-x") == []
        assert idle.sessions_for("tv-x") == []

    def test_matcher_over_other_library_rejected(self, reference):
        shared = assets.reference_matcher("uk", 0)
        with pytest.raises(ValueError, match="different reference library"):
            AcrBackend("alphonso", reference, matcher=shared)
        backend = AcrBackend("alphonso", shared.library, matcher=shared)
        assert backend.matcher is shared

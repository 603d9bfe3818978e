"""Tests for the reference library and the LSH-banded matcher."""

import pytest

from repro.acr import (Capture, FingerprintMatcher, ReferenceLibrary,
                       bands_of, capture_state)
from repro.media import PlayState, build_channel, standard_library
from repro.sim import seconds


@pytest.fixture(scope="module")
def library():
    return standard_library("uk", seed=3)


@pytest.fixture(scope="module")
def reference(library):
    ref = ReferenceLibrary()
    ref.ingest_all(library.reference_items)
    return ref


@pytest.fixture(scope="module")
def matcher(reference):
    return FingerprintMatcher(reference)


class TestReferenceLibrary:
    def test_ingest_counts_samples(self, library):
        ref = ReferenceLibrary(sample_interval_s=2, max_seconds=20)
        added = ref.ingest(library.shows[0])
        assert added == 10

    def test_ingest_idempotent(self, library):
        ref = ReferenceLibrary()
        ref.ingest(library.shows[0])
        assert ref.ingest(library.shows[0]) == 0

    def test_short_item_fully_sampled(self, library):
        ref = ReferenceLibrary(sample_interval_s=2)
        ad = library.ads[0]
        added = ref.ingest(ad)
        assert added == -(-ad.duration_s // 2)  # ceil

    def test_knows(self, reference, library):
        assert reference.knows(library.shows[0].content_id)
        assert not reference.knows("nope")

    def test_item_lookup(self, reference, library):
        item = library.shows[0]
        assert reference.item(item.content_id) is item
        with pytest.raises(KeyError):
            reference.item("missing")

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            ReferenceLibrary(sample_interval_s=0)


class TestBands:
    def test_band_count_and_width(self):
        bands = bands_of(0x1111222233334444)
        assert bands == (0x1111, 0x2222, 0x3333, 0x4444)

    def test_nearby_hash_shares_band(self):
        """Pigeonhole: Hamming distance 3 over 4 bands shares one band."""
        original = 0xAAAABBBBCCCCDDDD
        corrupted = original ^ 0b111  # 3 bit flips in the last band
        shared = set(bands_of(original)) & set(bands_of(corrupted))
        assert shared


class TestMatcher:
    def test_exact_position_match(self, matcher, library):
        item = library.shows[0]
        capture = capture_state(PlayState(item, 50.0))
        match = matcher.match_capture(capture)
        assert match is not None
        assert match.content_id == item.content_id
        # Within the same 8 s scene of the true position.
        assert abs(match.position_s - 50) <= 8

    def test_drifted_frame_still_matches(self, matcher, library):
        """Off-grid positions (between reference samples) match too."""
        item = library.shows[1]
        capture = capture_state(PlayState(item, 51.0))  # refs at 50, 52
        match = matcher.match_capture(capture)
        assert match is not None
        assert match.content_id == item.content_id

    def test_unknown_content_no_match(self, matcher, library):
        capture = capture_state(PlayState(library.game(), 100.0))
        assert matcher.match_capture(capture) is None

    def test_batch_vote(self, matcher, library):
        channel = build_channel("C1", library)
        captures = [capture_state(channel.playing_at(seconds(100 + i)))
                    for i in range(8)]
        verdict = matcher.match_batch(captures)
        assert verdict.recognised
        assert verdict.content_id == channel.playing_at(
            seconds(104)).item.content_id
        assert verdict.confidence > 0.5

    def test_empty_batch(self, matcher):
        verdict = matcher.match_batch([])
        assert not verdict.recognised
        assert verdict.total == 0

    def test_batch_of_unknown_content(self, matcher, library):
        captures = [capture_state(PlayState(library.desktop(), float(i)))
                    for i in range(8)]
        verdict = matcher.match_batch(captures)
        assert not verdict.recognised

    def test_mixed_batch_majority_wins(self, matcher, library):
        item = library.shows[2]
        known = [capture_state(PlayState(item, 20.0 + i)) for i in range(6)]
        unknown = [capture_state(PlayState(library.game(), float(i)))
                   for i in range(2)]
        verdict = matcher.match_batch(known + unknown)
        assert verdict.recognised
        assert verdict.content_id == item.content_id

    def test_tolerance_zero_still_matches_on_grid(self, reference,
                                                  library):
        strict = FingerprintMatcher(reference, hamming_tolerance=0)
        item = library.shows[0]
        capture = capture_state(PlayState(item, 50.0))  # on the 2 s grid
        match = strict.match_capture(capture)
        assert match is not None and match.video_distance == 0

    def test_negative_tolerance_rejected(self, reference):
        with pytest.raises(ValueError):
            FingerprintMatcher(reference, hamming_tolerance=-1)

    def test_incremental_reindex(self, library):
        ref = ReferenceLibrary()
        ref.ingest(library.shows[0])
        matcher = FingerprintMatcher(ref)
        ref.ingest(library.shows[5])
        capture = capture_state(PlayState(library.shows[5], 10.0))
        match = matcher.match_capture(capture)  # triggers lazy reindex
        assert match is not None
        assert match.content_id == library.shows[5].content_id

    def test_recognition_rate_over_catalog(self, matcher, library):
        """>90% of on-grid captures across many items are recognised."""
        hits = 0
        trials = 0
        for item in library.shows[:10]:
            for position in (10.0, 60.0, 120.0):
                capture = capture_state(PlayState(item, position))
                match = matcher.match_capture(capture)
                trials += 1
                if match and match.content_id == item.content_id:
                    hits += 1
        assert hits / trials > 0.9


class TestSharedMatcher:
    """The per-country matcher every ``fresh_backend`` shares answers
    exactly as a private matcher built over the same library."""

    def test_shared_verdicts_equal_private(self, uk_library, uk_reference):
        from repro.testbed import reference_matcher
        shared = reference_matcher("uk", 0)
        private = FingerprintMatcher(uk_reference)
        batches = []
        for item in uk_library.shows[:6] + uk_library.ads[:3]:
            # On the 2 s reference grid, and between its samples.
            batches.append([capture_state(PlayState(item, 20.0 + 2 * i))
                            for i in range(6)])
            batches.append([capture_state(PlayState(item, 31.0 + 2 * i))
                            for i in range(6)])
        batches.append([capture_state(PlayState(uk_library.game(),
                                                float(i)))
                        for i in range(6)])

        def answer(verdict):
            return (verdict.content_id, verdict.votes, verdict.total,
                    [(m.content_id, m.position_s, m.video_distance,
                      m.audio_overlap) for m in verdict.matches])
        answers = [answer(shared.match_batch(batch)) for batch in batches]
        assert answers == [answer(private.match_batch(batch))
                           for batch in batches]
        # The sample spans both outcomes: mostly recognised, game not.
        assert sum(1 for content, *__ in answers if content) > \
            len(batches) // 2
        assert answers[-1][0] is None

"""The stored reference library: a load equals a build, bad files heal.

Every test points ``REPRO_CACHE_DIR`` at its own temporary directory
and clears the asset memos, so a build is never compared with a load
of itself.  The equivalence tests build the real uk and us libraries
once (from an empty fingerprint memo) and load them back; the
self-heal tests shrink the ingest plan to the ad shelf so each rebuild
is quick.
"""

import os

import numpy as np
import pytest

from repro.acr import fingerprint
from repro.acr.fingerprint import capture_state, clear_fingerprint_cache
from repro.acr.matcher import FingerprintMatcher
from repro.media.content import PlayState
from repro.obs.metrics import scoped
from repro.testbed import assets

COUNTRIES = ("uk", "us")
#: Samples in each country's full library (perfbench's
#: ``acr.library.entries`` of a build is their sum).
ENTRIES = {"uk": 23178, "us": 22671}
SMALL_PLAN = (("ads", None),)


def _forget_assets() -> None:
    assets.reference_library.cache_clear()
    assets.reference_matcher.cache_clear()


def _acquire(country: str):
    """A fresh ``reference_library`` call: (library, counters)."""
    _forget_assets()
    with scoped() as registry:
        library = assets.reference_library(country, 0)
    return library, registry.snapshot()["counters"]


def _rows(library):
    return [(entry.content_id, entry.position_s, entry.video_hash,
             entry.audio_hashes) for entry in library.entries]


def _store_path(country: str) -> str:
    __, path = assets._store_location(country, 0)
    return path


@pytest.fixture(scope="module")
def built_and_loaded(tmp_path_factory):
    """country -> (build, memo after it, load, memo after it,
    build counters, load counters), each from an empty memo."""
    saved_memo = dict(fingerprint._FINGERPRINT_CACHE)
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("store")))
        patch.delenv("REPRO_NO_CACHE", raising=False)
        for country in COUNTRIES:
            clear_fingerprint_cache()
            built, built_counters = _acquire(country)
            built_memo = dict(fingerprint._FINGERPRINT_CACHE)
            clear_fingerprint_cache()
            loaded, loaded_counters = _acquire(country)
            loaded_memo = dict(fingerprint._FINGERPRINT_CACHE)
            runs[country] = (built, built_memo, loaded, loaded_memo,
                             built_counters, loaded_counters)
    _forget_assets()
    fingerprint._FINGERPRINT_CACHE.update(saved_memo)
    return runs


@pytest.mark.parametrize("country", COUNTRIES)
class TestLoadedEqualsBuilt:

    def test_first_call_builds_then_loads(self, built_and_loaded,
                                          country):
        *__, built_counters, loaded_counters = built_and_loaded[country]
        assert built_counters["assets.library.built"] == 1
        assert "assets.library.loaded" not in built_counters
        assert built_counters["acr.memo.miss"] == ENTRIES[country]
        assert loaded_counters["assets.library.loaded"] == 1
        assert "assets.library.built" not in loaded_counters
        assert "acr.memo.miss" not in loaded_counters

    def test_entries(self, built_and_loaded, country):
        built, __, loaded, *___ = built_and_loaded[country]
        assert len(built) == ENTRIES[country]
        assert _rows(loaded) == _rows(built)
        assert all(type(entry.video_hash) is int
                   and type(entry.audio_hashes) is list
                   for entry in loaded.entries)

    def test_content_registry(self, built_and_loaded, country):
        built, __, loaded, *___ = built_and_loaded[country]
        assert loaded.content_count == built.content_count
        for item in assets.media_library(country, 0).all_items:
            assert loaded.knows(item.content_id) \
                == built.knows(item.content_id)
            if built.knows(item.content_id):
                assert loaded.item(item.content_id) \
                    is built.item(item.content_id)

    def test_fingerprint_memo(self, built_and_loaded, country):
        __, built_memo, ___, loaded_memo, *____ = built_and_loaded[country]
        assert len(built_memo) == ENTRIES[country]
        assert loaded_memo == built_memo

    def test_match_verdicts(self, built_and_loaded, country):
        built, __, loaded, *___ = built_and_loaded[country]
        media = assets.media_library(country, 0)
        items = [media.shows[0], media.shows[7], media.ads[3],
                 media.live_feeds[1], media.movies[2], media.episodes[4],
                 media.game(), media.desktop()]
        matchers = [FingerprintMatcher(built), FingerprintMatcher(loaded)]
        for item in items:
            for start in (0, 100, 600):
                captures = [capture_state(PlayState(item, start + second))
                            for second in range(15)]
                first, second = (matcher.match_batch(captures)
                                 for matcher in matchers)
                assert (first.content_id, first.votes, first.total) \
                    == (second.content_id, second.votes, second.total)
                assert [repr(match) for match in first.matches] \
                    == [repr(match) for match in second.matches]


@pytest.fixture
def small_store(tmp_path, monkeypatch):
    """An empty store of its own, over a one-shelf ingest plan."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(assets, "INGEST_PLAN", SMALL_PLAN)
    _forget_assets()
    yield tmp_path / "cache"
    _forget_assets()


def _savez(path, **members) -> None:
    with open(path, "wb") as fileobj:
        np.savez(fileobj, **members)


def _truncated(path, columns, header) -> None:
    with open(path, "rb") as fileobj:
        payload = fileobj.read()
    with open(path, "wb") as fileobj:
        fileobj.write(payload[:len(payload) // 2])


def _garbage(path, columns, header) -> None:
    with open(path, "wb") as fileobj:
        fileobj.write(b"not a reference library\n" * 64)


def _crc_failure(path, columns, header) -> None:
    # Flip one byte of member data just before the last member's
    # header: the zip still parses, that member's CRC-32 fails.
    with open(path, "rb") as fileobj:
        payload = bytearray(fileobj.read())
    at = payload.rindex(b"PK\x03\x04") - 64
    payload[at] ^= 0xFF
    with open(path, "wb") as fileobj:
        fileobj.write(bytes(payload))


def _object_member(path, columns, header) -> None:
    _savez(path, header=header, audio_offsets=columns["audio_offsets"],
           audio=columns["audio"],
           video=columns["video"].astype(object))


def _short_columns(path, columns, header) -> None:
    _savez(path, header=header, audio_offsets=columns["audio_offsets"][:-1],
           audio=columns["audio"], video=columns["video"][:-1])


def _other_country(path, columns, header) -> None:
    # Another country's file under this country's name.
    _acquire("us")
    os.replace(_store_path("us"), path)


def _other_code_version(path, columns, header) -> None:
    # The same country, seed and column lengths, stored under another
    # code version: only the header tells it apart.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CODE_VERSION", "another-version")
        _acquire("uk")
        os.replace(_store_path("uk"), path)


class TestSelfHeal:

    @pytest.mark.parametrize("damage", [
        _truncated, _garbage, _crc_failure, _object_member,
        _short_columns, _other_country, _other_code_version])
    def test_bad_file_is_rebuilt_and_rewritten(self, small_store, damage):
        built, counters = _acquire("uk")
        assert counters["assets.library.built"] == 1
        path = _store_path("uk")
        columns = built.columns()
        header = np.array(assets._store_location("uk", 0)[0])
        damage(path, columns, header)

        healed, counters = _acquire("uk")
        assert counters["assets.library.built"] == 1
        assert "assets.library.loaded" not in counters
        assert _rows(healed) == _rows(built)

        reloaded, counters = _acquire("uk")
        assert counters["assets.library.loaded"] == 1
        assert _rows(reloaded) == _rows(built)

    def test_file_holds_columns_and_header_only(self, small_store):
        built, __ = _acquire("uk")
        with np.load(_store_path("uk"), allow_pickle=False) as stored:
            assert sorted(stored.files) \
                == ["audio", "audio_offsets", "header", "video"]
            assert stored["video"].dtype == np.uint64
            assert stored["audio"].dtype == np.uint32
            assert len(stored["video"]) == len(built)
        assert [name for name in os.listdir(small_store / "assets")
                if not name.endswith(".npz")] == []

    def test_no_cache_writes_nothing(self, small_store, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        for __ in range(2):
            library, counters = _acquire("uk")
            assert counters["assets.library.built"] == 1
        assert len(library) > 0
        assert not small_store.exists()

    def test_unwritable_location_still_builds(self, small_store,
                                              monkeypatch):
        blocker = small_store.parent / "a-file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        for __ in range(2):
            library, counters = _acquire("uk")
            assert counters["assets.library.built"] == 1
        assert len(library) > 0

    def test_key_covers_seed_and_country(self, small_store):
        paths = {assets._store_location(country, seed)[1]
                 for country in COUNTRIES for seed in (0, 1)}
        assert len(paths) == 4
        assert all(os.path.dirname(path) == str(small_store / "assets")
                   for path in paths)

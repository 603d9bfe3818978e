"""Shared, cached testbed assets.

Building a reference fingerprint database over a full media library, and
the matcher's band index over it, is the expensive part of standing up an
operator backend; both depend only on (country, seed), so experiments
share them: every backend :func:`fresh_backend` builds for a country
matches through that country's one :class:`FingerprintMatcher`.  Channels
are cached with them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from ..acr.library import ReferenceLibrary
from ..acr.matcher import FingerprintMatcher
from ..acr.server import AcrBackend
from ..media.content import ContentItem, launcher_item
from ..media.library import MediaLibrary, standard_library
from ..media.schedule import Channel, build_channel


@lru_cache(maxsize=8)
def media_library(country: str, seed: int = 0) -> MediaLibrary:
    """The (cached) content catalog for one country."""
    return standard_library(country, seed)


@lru_cache(maxsize=8)
def reference_library(country: str, seed: int = 0) -> ReferenceLibrary:
    """The (cached) operator fingerprint database for one country.

    Broadcast inventory (shows, ads) is fingerprinted in full since the
    operator ingests the feeds it has agreements over; live feeds keep a
    rolling prefix; the long-tail on-demand catalog keeps a short prefix
    (it is never fingerprinted by the client anyway — OTT is restricted).
    """
    library = media_library(country, seed)
    reference = ReferenceLibrary()
    reference.ingest_all(library.shows)
    reference.ingest_all(library.ads)
    reference.ingest_all(library.live_feeds, max_seconds=900)
    reference.ingest_all(library.movies, max_seconds=240)
    reference.ingest_all(library.episodes, max_seconds=240)
    return reference


@lru_cache(maxsize=8)
def reference_matcher(country: str, seed: int = 0) -> FingerprintMatcher:
    """The (cached) matcher, band index built, over :func:`reference_library`.

    Shared by every backend of the country: the index is a pure function
    of the library's entries and nothing mutates the library after it is
    built (were it to grow, the matcher re-indexes on its next query).
    """
    return FingerprintMatcher(reference_library(country, seed))


@lru_cache(maxsize=16)
def linear_channel(country: str, seed: int = 0) -> Channel:
    return build_channel(f"{country}-linear-1",
                         media_library(country, seed), kind="linear")


@lru_cache(maxsize=16)
def fast_channel(country: str, seed: int = 0) -> Channel:
    return build_channel(f"{country}-fast-1",
                         media_library(country, seed), kind="fast",
                         offset=6)


@lru_cache(maxsize=4)
def ui_item() -> ContentItem:
    """The launcher 'content' shown in the Idle scenario."""
    return launcher_item()


def fresh_backend(vendor: str, country: str, seed: int = 0) -> AcrBackend:
    """A new operator backend over the shared library and matcher."""
    from ..tv import vendors
    operator = vendors.get(vendor).operator
    return AcrBackend(operator, reference_library(country, seed),
                      matcher=reference_matcher(country, seed))


def ott_playlist(country: str, seed: int = 0) -> List[ContentItem]:
    """What the OTT scenario streams (a couple of movies)."""
    library = media_library(country, seed)
    return [library.movies[0], library.movies[1]]

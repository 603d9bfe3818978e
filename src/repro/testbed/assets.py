"""Shared, cached testbed assets.

Building a reference fingerprint database over a full media library, and
the matcher's band index over it, is the expensive part of standing up an
operator backend; both depend only on (country, seed), so experiments
share them: every backend :func:`fresh_backend` builds for a country
matches through that country's one :class:`FingerprintMatcher`.  Channels
are cached with them.

The reference library is also persisted across processes: the first
build for a (code version, numpy version, country, seed) stores its hash
columns as ``<default cache dir>/assets/reference-<country>-s<seed>-
<digest>.npz``, and every later interpreter, worker or CLI run loads
them instead of fingerprinting the catalog again.  A file that cannot be
read, does not fit the catalog's sample plan or belongs to another key
is a miss: the library is rebuilt and the file rewritten.
``REPRO_NO_CACHE=1`` builds without reading or writing, as does an
unwritable cache location.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from ..acr.library import (DEFAULT_SAMPLE_INTERVAL_S, MAX_REFERENCE_SECONDS,
                           ReferenceLibrary)
from ..acr.matcher import FingerprintMatcher
from ..acr.server import AcrBackend
from ..media.content import ContentItem, launcher_item
from ..media.library import MediaLibrary, standard_library
from ..media.schedule import Channel, build_channel
from ..obs.metrics import get_registry
from ..util import atomic_write_bytes


@lru_cache(maxsize=8)
def media_library(country: str, seed: int = 0) -> MediaLibrary:
    """The (cached) content catalog for one country."""
    return standard_library(country, seed)


#: What the operator fingerprints, shelf by shelf, and how deep (None:
#: the library-wide cap).  Broadcast inventory (shows, ads) is
#: fingerprinted in full since the operator ingests the feeds it has
#: agreements over; live feeds keep a rolling prefix; the long-tail
#: on-demand catalog keeps a short prefix (it is never fingerprinted by
#: the client anyway — OTT is restricted).
INGEST_PLAN = (("shows", None), ("ads", None), ("live_feeds", 900),
               ("movies", 240), ("episodes", 240))
#: Bump on any change to the stored library's layout.
STORE_FORMAT = 1


@lru_cache(maxsize=8)
def reference_library(country: str, seed: int = 0) -> ReferenceLibrary:
    """The (cached) operator fingerprint database for one country:
    loaded from its stored columns when they exist, else built (every
    shelf of :data:`INGEST_PLAN` through ``ingest_all``) and stored."""
    registry = get_registry()
    with registry.span("testbed.assets.reference_library"):
        library = media_library(country, seed)
        key, path = _store_location(country, seed)
        reference = _load(path, key, library) if path else None
        if reference is not None:
            registry.inc("assets.library.loaded")
            return reference
        reference = ReferenceLibrary()
        for shelf, cap in INGEST_PLAN:
            reference.ingest_all(getattr(library, shelf), max_seconds=cap)
        registry.inc("assets.library.built")
        if path:
            _store(path, key, reference)
        return reference


def _store_location(country: str,
                    seed: int) -> Tuple[str, Optional[str]]:
    """The stored library's key (everything its hashes depend on) and
    file path; the path is None when caching is off."""
    from ..experiments.grid import code_version, default_cache_dir
    key = json.dumps({
        "format": STORE_FORMAT, "code": code_version(),
        "numpy": np.__version__, "country": country, "seed": seed,
        "interval": DEFAULT_SAMPLE_INTERVAL_S,
        "caps": [MAX_REFERENCE_SECONDS, INGEST_PLAN]}, sort_keys=True)
    if os.environ.get("REPRO_NO_CACHE"):
        return key, None
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
    return key, os.path.join(default_cache_dir(), "assets",
                             f"reference-{country}-s{seed}-{digest}.npz")


def _load(path: str, key: str,
          library: MediaLibrary) -> Optional[ReferenceLibrary]:
    """The library stored at ``path``, or None on any miss.  No pickle:
    the cache directory may be shared, and unpickling runs code."""
    reference = ReferenceLibrary()
    samples = [sample for shelf, cap in INGEST_PLAN
               for sample in reference.plan(getattr(library, shelf), cap)]
    try:
        with open(path, "rb") as fileobj, \
                np.load(fileobj, allow_pickle=False) as stored:
            if stored["header"].tolist() != key:
                return None
            reference.restore(samples, stored)
    except (OSError, ValueError, KeyError, EOFError, TypeError,
            zipfile.BadZipFile):
        return None
    return reference


def _store(path: str, key: str, reference: ReferenceLibrary) -> None:
    """Persist ``reference``'s columns; a failed write is only a lost
    speed-up."""
    buffer = io.BytesIO()
    np.savez(buffer, header=np.array(key), **reference.columns())
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_bytes(path, buffer.getvalue())
    except OSError:
        pass


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

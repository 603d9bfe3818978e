"""Server-side reference fingerprint database.

The ACR operator pre-fingerprints its content library ("movies, ads, live
feed", Figure 1); the matcher then recognises screen captures against it.
"""

from __future__ import annotations

import gc
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..media.content import ContentItem, PlayState
from .fingerprint import capture_state, memo_key, remember

DEFAULT_SAMPLE_INTERVAL_S = 4
MAX_REFERENCE_SECONDS = 2700  # fingerprint the first N seconds per item

#: One reference sample to take: an item at a playback second.
Sample = Tuple[ContentItem, int]


class ReferenceEntry:
    """One reference sample: which content, where, and its hashes."""

    __slots__ = ("content_id", "position_s", "video_hash", "audio_hashes")

    def __init__(self, content_id: str, position_s: int, video_hash: int,
                 audio_hashes: List[int]) -> None:
        self.content_id = content_id
        self.position_s = position_s
        self.video_hash = video_hash
        self.audio_hashes = audio_hashes

    def __repr__(self) -> str:
        return (f"ReferenceEntry({self.content_id}@{self.position_s}s, "
                f"{self.video_hash:#018x})")


class ReferenceLibrary:
    """All reference samples for an operator's content catalog."""

    def __init__(self, sample_interval_s: int = DEFAULT_SAMPLE_INTERVAL_S,
                 max_seconds: int = MAX_REFERENCE_SECONDS) -> None:
        if sample_interval_s <= 0:
            raise ValueError("sample interval must be positive")
        self.sample_interval_s = sample_interval_s
        self.max_seconds = max_seconds
        self.entries: List[ReferenceEntry] = []
        self._content_ids: Dict[str, ContentItem] = {}

    def plan(self, items: Iterable[ContentItem],
             max_seconds: Optional[int] = None) -> List[Sample]:
        """Register the items not yet in the library; returns the
        ``(item, position)`` samples they add, in ingest order.

        ``max_seconds`` overrides the library-wide depth cap for these
        items (operators fingerprint broadcast content in full but may
        only keep a prefix of a long-tail movie catalog).
        """
        cap = self.max_seconds if max_seconds is None else max_seconds
        samples: List[Sample] = []
        for item in items:
            if item.content_id in self._content_ids:
                continue
            self._content_ids[item.content_id] = item
            samples.extend((item, position) for position in range(
                0, min(item.duration_s, cap), self.sample_interval_s))
        return samples

    def ingest(self, item: ContentItem,
               max_seconds: Optional[int] = None) -> int:
        """Fingerprint one item; returns the number of samples added."""
        return self._fingerprint(self.plan((item,), max_seconds))

    def ingest_all(self, items: Iterable[ContentItem],
                   max_seconds: Optional[int] = None) -> int:
        return self._fingerprint(self.plan(items, max_seconds))

    def _fingerprint(self, samples: List[Sample]) -> int:
        for item, position in samples:
            capture = capture_state(PlayState(item, position))
            self.entries.append(ReferenceEntry(
                item.content_id, position, capture.video_hash,
                capture.audio_hashes))
        return len(samples)

    def columns(self) -> Dict[str, np.ndarray]:
        """The entries' hashes as flat columns: ``video`` (uint64),
        ``audio`` (uint32, every entry's landmarks concatenated) and
        ``audio_offsets`` (uint32, entry ``i`` owns
        ``audio[offsets[i]:offsets[i + 1]]``)."""
        counts = [len(entry.audio_hashes) for entry in self.entries]
        return {
            "video": np.array([entry.video_hash for entry in self.entries],
                              dtype=np.uint64),
            "audio_offsets": np.concatenate(
                ([0], np.cumsum(counts, dtype=np.int64))).astype(np.uint32),
            "audio": np.fromiter(chain.from_iterable(
                entry.audio_hashes for entry in self.entries),
                dtype=np.uint32, count=sum(counts)),
        }

    def restore(self, samples: List[Sample],
                columns: Mapping[str, np.ndarray]) -> None:
        """Add the entries of ``samples`` (a :meth:`plan`) from stored
        :meth:`columns` instead of fingerprinting them, and seed the
        process fingerprint memo with them exactly as fingerprinting
        would have.  Columns that do not fit the plan raise ValueError
        (a missing one KeyError) before anything changes."""
        video, audio_offsets, audio = (
            columns[name] for name in ("video", "audio_offsets", "audio"))
        count = len(samples)
        if (video.dtype != np.uint64 or video.shape != (count,)
                or audio_offsets.dtype != np.uint32
                or audio_offsets.shape != (count + 1,)
                or audio.dtype != np.uint32 or audio.ndim != 1
                or audio_offsets[0] != 0
                or audio_offsets[-1] != len(audio)
                or np.any(audio_offsets[1:] < audio_offsets[:-1])):
            raise ValueError("reference columns do not fit the plan")
        videos = video.tolist()
        bounds = audio_offsets.tolist()
        flat = audio.tolist()
        seeds: Dict[str, int] = {}
        memo = {}
        # Everything made below is acyclic, so the cyclic collector
        # would only rescan the growing heap (half the restore's time).
        collecting = gc.isenabled()
        gc.disable()
        try:
            for index, (item, position) in enumerate(samples):
                hashes = flat[bounds[index]:bounds[index + 1]]
                self.entries.append(ReferenceEntry(
                    item.content_id, position, videos[index], hashes))
                seed = seeds.get(item.content_id)
                if seed is None:
                    seed = seeds[item.content_id] = item.visual_seed
                memo[memo_key(seed, position)] = (videos[index],
                                                  tuple(hashes))
        finally:
            if collecting:
                gc.enable()
        remember(memo)

    def item(self, content_id: str) -> ContentItem:
        try:
            return self._content_ids[content_id]
        except KeyError:
            raise KeyError(f"content not in library: {content_id!r}") \
                from None

    def knows(self, content_id: str) -> bool:
        return content_id in self._content_ids

    @property
    def content_count(self) -> int:
        return len(self._content_ids)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (f"ReferenceLibrary({self.content_count} items, "
                f"{len(self.entries)} samples)")

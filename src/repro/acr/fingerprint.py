"""Content fingerprinting — the "Shazam-like" core of ACR.

Two modalities, as in deployed ACR systems:

* **Video**: a difference hash (dHash).  The frame is downsampled to a
  9x8 luma grid; each bit encodes whether a pixel is brighter than its
  right neighbour.  Robust to brightness shifts and mild noise, which is
  exactly the drift :mod:`repro.media.frames` injects within a scene.
* **Audio**: spectral landmarks.  The strongest FFT peaks of a one-second
  excerpt are paired into (f1, f2, dt) hashes, Shazam-style.

Fingerprints are compact ("essentially hash of the content", §2) and the
serialized batch size is what travels inside TLS to the ACR server — the
quantity the paper measures on the wire.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..media.content import PlayState
from ..media.frames import _SCENE_LENGTH_S, render_audio, render_frame
from ..obs.metrics import get_registry

VIDEO_HASH_BITS = 64
_DHASH_WIDTH = 9
_DHASH_HEIGHT = 8

AUDIO_PEAKS = 5
AUDIO_FANOUT = 3


def video_fingerprint(frame: np.ndarray) -> int:
    """64-bit dHash of a luma frame."""
    if frame.ndim != 2:
        raise ValueError("expected a 2-D luma frame")
    grid = _resample(frame, _DHASH_HEIGHT, _DHASH_WIDTH)
    # MSB-first row-major neighbour comparisons, packed in one shot —
    # identical bits to the original per-cell shift loop.
    comparisons = grid[:, :-1] > grid[:, 1:]
    return int.from_bytes(np.packbits(comparisons).tobytes(), "big")


#: (frame shape, grid shape) -> [(flat grid positions, gather indices)],
#: one entry per distinct block shape.  Frames are fixed-size, so the
#: plan is computed once and the per-frame work is a handful of batched
#: gather-and-reduce operations instead of rows*cols tiny ones.
_RESAMPLE_PLANS: Dict[Tuple[int, int, int, int], List] = {}


def _resample_plan(h: int, w: int, rows: int, cols: int) -> List:
    key = (h, w, rows, cols)
    plan = _RESAMPLE_PLANS.get(key)
    if plan is None:
        row_edges = np.linspace(0, h, rows + 1).astype(int)
        col_edges = np.linspace(0, w, cols + 1).astype(int)
        by_shape: Dict[Tuple[int, int], List] = {}
        for r in range(rows):
            row_stop = int(max(row_edges[r + 1], row_edges[r] + 1))
            block_rows = np.arange(int(row_edges[r]), row_stop)
            for c in range(cols):
                col_stop = int(max(col_edges[c + 1], col_edges[c] + 1))
                block_cols = np.arange(int(col_edges[c]), col_stop)
                positions, indices = by_shape.setdefault(
                    (len(block_rows), len(block_cols)), ([], []))
                positions.append(r * cols + c)
                indices.append(block_rows[:, None] * w
                               + block_cols[None, :])
        plan = [(np.array(positions), np.stack(indices))
                for positions, indices in by_shape.values()]
        _RESAMPLE_PLANS[key] = plan
    return plan


def _resample(frame: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Block-mean downsample to ``rows x cols`` (no scipy dependency).

    Same-shape blocks are gathered into one ``(blocks, h, w)`` array
    per shape class and reduced in a single batched ``mean`` —
    bit-identical to reducing each block view on its own
    (``tests/test_acr_fingerprint.py`` pins the equivalence), just
    without thousands of tiny reductions per frame.
    """
    h, w = frame.shape
    flat = frame.ravel()
    out = np.empty((rows, cols), dtype=np.float64)
    for positions, indices in _resample_plan(h, w, rows, cols):
        out.flat[positions] = flat[indices].mean(axis=(1, 2))
    return out


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bits between two 64-bit hashes."""
    return bin((a ^ b) & ((1 << VIDEO_HASH_BITS) - 1)).count("1")


def audio_fingerprint(signal: np.ndarray) -> List[int]:
    """Landmark hashes from a one-second audio excerpt.

    Returns up to ``AUDIO_PEAKS * AUDIO_FANOUT`` 32-bit hashes of
    (anchor_bin, target_bin, rank_gap) triples.
    """
    if signal.ndim != 1:
        raise ValueError("expected 1-D audio samples")
    spectrum = np.abs(np.fft.rfft(signal))
    if len(spectrum) < AUDIO_PEAKS + AUDIO_FANOUT:
        raise ValueError("audio excerpt too short")
    peak_bins = np.argsort(spectrum)[-(AUDIO_PEAKS + AUDIO_FANOUT):][::-1]
    hashes: List[int] = []
    for i in range(min(AUDIO_PEAKS, len(peak_bins))):
        for j in range(1, AUDIO_FANOUT + 1):
            if i + j >= len(peak_bins):
                break
            anchor = int(peak_bins[i]) & 0xFFF
            target = int(peak_bins[i + j]) & 0xFFF
            hashes.append((anchor << 20) | (target << 8) | (j & 0xFF))
    return hashes


class Capture:
    """One fingerprinted screen capture."""

    __slots__ = ("offset_ns", "video_hash", "audio_hashes")

    def __init__(self, offset_ns: int, video_hash: int,
                 audio_hashes: Sequence[int]) -> None:
        self.offset_ns = offset_ns
        self.video_hash = video_hash
        self.audio_hashes = list(audio_hashes)

    def __repr__(self) -> str:
        return (f"Capture(+{self.offset_ns / 1e9:.1f}s, "
                f"video={self.video_hash:#018x}, "
                f"{len(self.audio_hashes)} audio landmarks)")


#: (visual_seed, playback second, scene) -> (video hash, audio hashes).
#: Rendering and fingerprinting are pure functions of exactly this key
#: (see ``repro.media.frames``), so the memo never changes a value — it
#: only skips re-rendering content the process has fingerprinted before.
#: Channels replay the same content across grid cells and fleet
#: households, which makes the hit rate high precisely where cold runs
#: hurt (scorecard/report/fleet sweeps within one process).
_FINGERPRINT_CACHE: Dict[Tuple[int, int, int], Tuple[int, Tuple[int, ...]]] \
    = {}


def clear_fingerprint_cache() -> None:
    """Drop the process-wide content-fingerprint memo (tests)."""
    _FINGERPRINT_CACHE.clear()


def memo_key(visual_seed: int, position: float) -> Tuple[int, int, int]:
    """The memo key of an item (by visual seed) at a playback second."""
    return (visual_seed, int(position), int(position / _SCENE_LENGTH_S))


def remember(fingerprints: Dict[Tuple[int, int, int],
                                Tuple[int, Tuple[int, ...]]]) -> None:
    """Seed the memo with fingerprints computed earlier (a stored
    reference library), keyed by :func:`memo_key`."""
    _FINGERPRINT_CACHE.update(fingerprints)


def capture_state(state: PlayState, offset_ns: int = 0) -> Capture:
    """Fingerprint whatever a play state is showing (memoized)."""
    key = memo_key(state.item.visual_seed, state.position_s)
    cached = _FINGERPRINT_CACHE.get(key)
    if cached is None:
        get_registry().inc("acr.memo.miss")
        video = video_fingerprint(render_frame(state))
        audio = audio_fingerprint(render_audio(state))
        cached = _FINGERPRINT_CACHE[key] = (video, tuple(audio))
    else:
        get_registry().inc("acr.memo.hit")
    return Capture(offset_ns, cached[0], list(cached[1]))


class FingerprintBatch:
    """A batch of captures as shipped to the ACR server.

    ``encode`` defines the exact on-the-wire payload: an 8-byte header,
    then per capture a 4-byte offset, 8-byte video hash, a count byte and
    4 bytes per audio landmark.  The wire sizes in the paper's Tables 2-5
    emerge from this encoding times the vendor's capture cadence.
    """

    HEADER = struct.Struct(">4sHH")
    MAGIC = b"ACRB"

    def __init__(self, device_id: str, captures: List[Capture]) -> None:
        self.device_id = device_id
        self.captures = captures

    def encode(self) -> bytes:
        out = bytearray()
        device = self.device_id.encode("ascii")[:65535]
        out += self.HEADER.pack(self.MAGIC, len(device), len(self.captures))
        out += device
        for capture in self.captures:
            out += struct.pack(">IQB", capture.offset_ns // 1_000_000,
                               capture.video_hash,
                               min(255, len(capture.audio_hashes)))
            for landmark in capture.audio_hashes[:255]:
                out += struct.pack(">I", landmark)
        return bytes(out)

    @classmethod
    def decode(cls, raw: bytes) -> "FingerprintBatch":
        if len(raw) < cls.HEADER.size:
            raise ValueError("batch too short")
        magic, device_len, count = cls.HEADER.unpack_from(raw, 0)
        if magic != cls.MAGIC:
            raise ValueError("bad batch magic")
        offset = cls.HEADER.size
        device_id = raw[offset:offset + device_len].decode("ascii")
        offset += device_len
        captures: List[Capture] = []
        for __ in range(count):
            ms, video_hash, n_audio = struct.unpack_from(">IQB", raw, offset)
            offset += 13
            audio = [struct.unpack_from(">I", raw, offset + 4 * k)[0]
                     for k in range(n_audio)]
            offset += 4 * n_audio
            captures.append(Capture(ms * 1_000_000, video_hash, audio))
        return cls(device_id, captures)

    @property
    def encoded_size(self) -> int:
        return len(self.encode())

    def __len__(self) -> int:
        return len(self.captures)

    def __repr__(self) -> str:
        return (f"FingerprintBatch({self.device_id!r}, "
                f"{len(self.captures)} captures)")

"""Content-based compare-by-hash (CbCH).

CbCH, following LBFS, derives chunk boundaries from the data itself: a
window of ``m`` bytes slides over the image, a hash of each window position
is computed, and a boundary is declared whenever the low ``k`` bits of the
hash are all zero.  Because boundaries depend only on local content, an
insertion or deletion disturbs at most the one or two chunks it touches,
leaving the rest of the chunking — and hence the detected similarity —
intact.

The paper evaluates two scanning regimes (Table 3):

* **overlap** — the window advances one byte at a time (``p = 1``); this is
  the classical LBFS scan and maximizes boundary-detection opportunities,
  but hashing every overlapping window is extremely slow (≈1 MB/s in the
  paper).
* **no-overlap** — the window advances by its own size (``p = m``), hashing
  each byte only once; roughly ``m`` times fewer hash evaluations at the
  cost of fewer boundary candidates (larger and more variable chunks).

Table 4 sweeps ``m`` and ``k`` for the no-overlap variant.
"""

from __future__ import annotations

from typing import List

from repro.similarity.base import (
    DetectedChunk,
    DetectionResult,
    SimilarityDetector,
    hash_extent,
    timed,
)
from repro.util.hashing import RollingHash

#: NumPy accelerates the no-overlap scan, imported by the first scan that
#: needs it (``import repro`` must not pay for it); ``None`` takes the
#: pure-Python path, where NumPy is missing or a caller sets it so.
_UNLOADED = object()
_np = _UNLOADED


def _numpy():
    global _np
    if _np is _UNLOADED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy is available in the test env
            numpy = None
        _np = numpy
    return _np


class ContentBasedCompareByHash(SimilarityDetector):
    """LBFS-style content-defined chunking.

    Parameters
    ----------
    window_size:
        ``m``, the number of bytes hashed per window position (paper default
        20 bytes for the overlap regime; Table 4 sweeps 20–256 bytes).
    boundary_bits:
        ``k``, the number of low hash bits that must be zero at a boundary.
        The expected chunk size grows as ``2**k`` (overlap) or ``m * 2**k``
        (no-overlap).
    overlap:
        When True the window slides byte-by-byte (``p=1``); when False it
        advances by ``window_size`` (``p=m``).
    min_chunk / max_chunk:
        Chunk-size guard rails.  ``min_chunk`` suppresses boundaries that
        would create tiny chunks; ``max_chunk`` forces a boundary so a
        pathological region cannot produce an unbounded chunk.  ``None``
        disables the respective bound (the paper's tables were produced
        without explicit bounds; benchmarks follow suit).
    """

    def __init__(
        self,
        window_size: int = 20,
        boundary_bits: int = 14,
        overlap: bool = False,
        min_chunk: int = 0,
        max_chunk: int = 0,
    ) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if not (0 < boundary_bits < 48):
            raise ValueError("boundary_bits must be in (0, 48)")
        if min_chunk < 0 or max_chunk < 0:
            raise ValueError("chunk bounds must be non-negative")
        if max_chunk and min_chunk and max_chunk < min_chunk:
            raise ValueError("max_chunk must be >= min_chunk")
        self.window_size = window_size
        self.boundary_bits = boundary_bits
        self.overlap = overlap
        self.min_chunk = min_chunk
        self.max_chunk = max_chunk
        regime = "overlap" if overlap else "no-overlap"
        self.name = f"CbCH-{regime}-m{window_size}-k{boundary_bits}"

    # -- boundary detection --------------------------------------------------
    def _boundaries_overlap(self, image: bytes) -> List[int]:
        """Boundary offsets using a byte-by-byte rolling window.

        This is the hot loop of the overlap regime (the paper measures it at
        ≈1 MB/s): every byte of the image rolls the hash once.  The roll
        arithmetic is inlined over a ``memoryview`` with every attribute
        hoisted into locals — the boundaries produced are byte-identical to
        driving :class:`~repro.util.hashing.RollingHash` step by step.
        """
        size = len(image)
        window_size = self.window_size
        if size < window_size:
            return [size] if size else []
        roller = RollingHash(window_size)
        base = roller.base
        modulus = roller.modulus
        high_power = pow(base, window_size - 1, modulus)
        mask = (1 << self.boundary_bits) - 1
        min_chunk = self.min_chunk
        max_chunk = self.max_chunk
        data = memoryview(image)
        boundaries: List[int] = []
        append = boundaries.append
        value = 0
        for byte in data[:window_size]:
            value = (value * base + byte) % modulus
        last_boundary = 0
        position = window_size  # exclusive end of the current window
        while True:
            chunk_len = position - last_boundary
            if ((value & mask) == 0 and chunk_len >= min_chunk) or (
                max_chunk and chunk_len >= max_chunk
            ):
                append(position)
                last_boundary = position
            if position >= size:
                break
            value = (
                (value - data[position - window_size] * high_power) * base
                + data[position]
            ) % modulus
            position += 1
        if not boundaries or boundaries[-1] != size:
            append(size)
        return boundaries

    def _window_hashes_vectorized(self, image: bytes, np):
        """Hashes of consecutive non-overlapping windows, via NumPy Horner.

        Produces exactly the same values as
        :meth:`repro.util.hashing.RollingHash.hash_window` — the 31-bit
        modulus keeps every intermediate product below 2**63.
        """
        roller = RollingHash(self.window_size)
        window_count = len(image) // self.window_size
        data = np.frombuffer(
            image, dtype=np.uint8, count=window_count * self.window_size
        ).astype(np.int64)
        windows = data.reshape(window_count, self.window_size)
        hashes = np.zeros(window_count, dtype=np.int64)
        for column in range(self.window_size):
            hashes = (hashes * roller.base + windows[:, column]) % roller.modulus
        return hashes

    def _boundaries_no_overlap(self, image: bytes) -> List[int]:
        """Boundary offsets advancing the window by its own size."""
        size = len(image)
        if size == 0:
            return []
        mask = (1 << self.boundary_bits) - 1
        boundaries: List[int] = []
        last_boundary = 0
        np = _numpy() if size >= self.window_size else None
        if np is not None:
            hashes = self._window_hashes_vectorized(image, np)
            candidates = np.nonzero((hashes & mask) == 0)[0]
            candidate_set = set(int(index) for index in candidates)
            window_count = len(hashes)
        else:
            roller = RollingHash(self.window_size)
            window_count = size // self.window_size
            candidate_set = set()
            for index in range(window_count):
                value = roller.hash_window(image, index * self.window_size)
                if (value & mask) == 0:
                    candidate_set.add(index)
        for index in range(window_count):
            end = (index + 1) * self.window_size
            chunk_len = end - last_boundary
            force_cut = bool(self.max_chunk) and chunk_len >= self.max_chunk
            if (index in candidate_set and chunk_len >= self.min_chunk) or force_cut:
                boundaries.append(end)
                last_boundary = end
        if not boundaries or boundaries[-1] != size:
            boundaries.append(size)
        return boundaries

    # -- SimilarityDetector interface -----------------------------------------
    def chunk_image(self, image: bytes) -> DetectionResult:
        start = timed()
        if self.overlap:
            boundaries = self._boundaries_overlap(image)
        else:
            boundaries = self._boundaries_no_overlap(image)
        chunks: List[DetectedChunk] = []
        previous = 0
        for boundary in boundaries:
            length = boundary - previous
            if length <= 0:
                continue
            chunks.append(
                DetectedChunk(
                    chunk_id=hash_extent(image, previous, length),
                    offset=previous,
                    length=length,
                )
            )
            previous = boundary
        elapsed = timed() - start
        return DetectionResult(chunks=chunks, image_size=len(image), elapsed=elapsed)

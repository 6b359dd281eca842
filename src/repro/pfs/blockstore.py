"""Real byte storage for simulated files, and the run-copy kernel.

A :class:`ByteStore` is a growable flat ``uint8`` buffer with vectorized
scatter/gather (``writev``/``readv``) over run lists — the storage engine
under every simulated file.  Growth doubles capacity (the same ``realloc``
strategy the paper credits SDM's single-pass edge reading to).

Reads of never-written ranges return zeros, like a POSIX sparse file.

:func:`gather_runs` and :func:`scatter_runs` are the one noncontiguous
copy kernel of the whole I/O stack: the block store, the two-phase
aggregators' scratch buffers, data sieving's read-modify-write and the
extraction of requested bytes from coalesced reads all move their bytes
through them.  A long run list is copied as *words*, not bytes: both
buffers are viewed at the widest unit (1, 2, 4 or 8 bytes) dividing
every offset and length, so an 8-byte-aligned run list builds an index
one eighth the size of a byte index.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import PFSError

__all__ = ["ByteStore", "gather_runs", "scatter_runs"]

_LOOP_THRESHOLD = 64
"""Run lists shorter than this copy with a plain per-run slice loop;
longer ones build one word index (numpy fancy indexing) instead."""

_WORD = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _copy_unit(offsets: np.ndarray, lengths: np.ndarray) -> int:
    """Largest power of two up to 8 dividing every offset and length."""
    bits = (
        int(np.bitwise_or.reduce(offsets))
        | int(np.bitwise_or.reduce(lengths))
        | 8
    )
    return bits & -bits


def _words(buf: np.ndarray, unit: int) -> np.ndarray:
    """``buf`` viewed as ``unit``-byte words (a trailing partial word is
    dropped: no run reaches into it)."""
    return buf[: len(buf) - len(buf) % unit].view(_WORD[unit])


def _word_index(
    offsets: np.ndarray, lengths: np.ndarray, unit: int
) -> np.ndarray:
    """Index of every ``unit``-byte word the runs cover, in run order."""
    wlen = lengths // unit
    first = np.cumsum(wlen) - wlen
    total = int(first[-1] + wlen[-1])
    return np.arange(total, dtype=np.int64) + np.repeat(
        offsets // unit - first, wlen
    )


def _runs(offsets, lengths) -> Tuple[np.ndarray, np.ndarray]:
    return (
        np.asarray(offsets, dtype=np.int64).reshape(-1),
        np.asarray(lengths, dtype=np.int64).reshape(-1),
    )


def gather_runs(src: np.ndarray, offsets, lengths) -> np.ndarray:
    """The bytes of ``src`` under each run, concatenated in run order.

    ``src`` is a contiguous 1-D ``uint8`` buffer holding every run.
    Returns a fresh ``uint8`` array of ``lengths.sum()`` bytes; ``src``
    is never aliased.
    """
    offsets, lengths = _runs(offsets, lengths)
    if len(offsets) < _LOOP_THRESHOLD:
        out = np.empty(int(lengths.sum()), dtype=np.uint8)
        pos = 0
        for o, l in zip(offsets.tolist(), lengths.tolist()):
            out[pos : pos + l] = src[o : o + l]
            pos += l
        return out
    unit = _copy_unit(offsets, lengths)
    return _words(src, unit)[_word_index(offsets, lengths, unit)].view(np.uint8)


def scatter_runs(dst: np.ndarray, offsets, lengths, data) -> None:
    """Store consecutive bytes of ``data`` into ``dst`` under each run.

    The inverse of :func:`gather_runs`: ``data`` holds ``lengths.sum()``
    bytes in run order.  Where runs overlap, the later run's bytes win
    (the two-phase write's "highest rank wins" rule rests on this).
    """
    offsets, lengths = _runs(offsets, lengths)
    raw = np.asarray(data).reshape(-1).view(np.uint8)
    if len(offsets) < _LOOP_THRESHOLD:
        pos = 0
        for o, l in zip(offsets.tolist(), lengths.tolist()):
            dst[o : o + l] = raw[pos : pos + l]
            pos += l
        return
    unit = _copy_unit(offsets, lengths)
    _words(dst, unit)[_word_index(offsets, lengths, unit)] = _words(raw, unit)


class ByteStore:
    """Growable in-memory byte array with run-list scatter/gather."""

    def __init__(self, initial_capacity: int = 4096) -> None:
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be positive")
        self._buf = np.zeros(initial_capacity, dtype=np.uint8)
        self.size = 0
        """High-water mark: one past the last byte ever written."""

    @property
    def capacity(self) -> int:
        """Currently allocated bytes (always >= size)."""
        return len(self._buf)

    def _ensure(self, upto: int) -> None:
        if upto <= len(self._buf):
            return
        new_cap = len(self._buf)
        while new_cap < upto:
            new_cap *= 2
        grown = np.zeros(new_cap, dtype=np.uint8)
        grown[: self.size] = self._buf[: self.size]
        self._buf = grown

    # ------------------------------------------------------------------
    # Contiguous access
    # ------------------------------------------------------------------

    def write(self, offset: int, data) -> None:
        """Store ``data`` (any buffer) at byte ``offset``."""
        if offset < 0:
            raise PFSError(f"negative write offset: {offset}")
        raw = np.asarray(data).reshape(-1).view(np.uint8)
        end = offset + len(raw)
        self._ensure(end)
        self._buf[offset:end] = raw
        if end > self.size:
            self.size = end

    def read(self, offset: int, length: int) -> np.ndarray:
        """Return ``length`` bytes at ``offset`` (zeros beyond EOF)."""
        if offset < 0 or length < 0:
            raise PFSError(f"negative read range: offset={offset} length={length}")
        out = np.zeros(length, dtype=np.uint8)
        avail = min(self.size, offset + length) - offset
        if avail > 0:
            out[:avail] = self._buf[offset : offset + avail]
        return out

    # ------------------------------------------------------------------
    # Vectored access over run lists
    # ------------------------------------------------------------------

    def writev(self, offsets, lengths, data) -> None:
        """Scatter contiguous ``data`` into the runs (run order).

        ``sum(lengths)`` must equal ``len(data)`` in bytes.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        raw = np.asarray(data).reshape(-1).view(np.uint8)
        total = int(lengths.sum())
        if total != len(raw):
            raise PFSError(f"writev: runs cover {total} bytes, data has {len(raw)}")
        if len(offsets) == 0:
            return
        if int(offsets.min()) < 0:
            raise PFSError("writev: negative offset")
        end = int((offsets + lengths).max())
        self._ensure(end)
        scatter_runs(self._buf, offsets, lengths, raw)
        if end > self.size:
            self.size = end

    def readv(self, offsets, lengths) -> np.ndarray:
        """Gather the runs into a fresh contiguous buffer (run order)."""
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if len(offsets) and int(offsets.min()) < 0:
            raise PFSError("readv: negative offset")
        if len(offsets) == 0 or int((offsets + lengths).max()) <= self.size:
            return gather_runs(self._buf, offsets, lengths)
        out = np.zeros(int(lengths.sum()), dtype=np.uint8)
        # Some runs extend past EOF: clamp per run (rare, slow path).
        pos = 0
        for o, l in zip(offsets.tolist(), lengths.tolist()):
            avail = max(min(self.size, o + l) - o, 0)
            if avail:
                out[pos : pos + avail] = self._buf[o : o + avail]
            pos += l
        return out

    def truncate(self, length: int = 0) -> None:
        """Shrink (or zero-extend) the logical size."""
        if length < 0:
            raise PFSError(f"negative truncate length: {length}")
        if length < self.size:
            self._buf[length : self.size] = 0
        else:
            self._ensure(length)
        self.size = length

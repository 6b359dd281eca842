"""Striping-aware run scheduling: batch file requests per controller.

Left unscheduled, a file-system request walks the controllers its stripes
land on, in file order, so the walks of concurrent aggregators collide
wherever two reach the same controller at once, and one queues behind the
other.  This module turns a coalesced run list into *single-controller*
batches (each holds one controller for its whole stream time),
interleaved round-robin from a caller-chosen starting controller — so N
aggregators that pick distinct starting points drive all controllers
concurrently instead of hammering one.

The split is pure layout arithmetic (:class:`~repro.pfs.striping.
StripeLayout`), fully vectorized: runs are cut at stripe boundaries, each
piece is owned by ``controller_of`` its stripe, per-controller pieces are
re-merged where file-contiguous, and size-batched to the collective
buffer limit — for all controllers in one pass.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.pfs.striping import StripeLayout

__all__ = ["split_runs_by_stripe", "controller_batches"]


def split_runs_by_stripe(
    layout: StripeLayout, offsets: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut runs at stripe boundaries.

    Returns ``(piece_offsets, piece_lengths, piece_controllers)`` with
    pieces in file-offset order (inputs must be sorted non-overlapping
    runs); every piece lies within one stripe, hence on one controller.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = lengths > 0
    offsets, lengths = offsets[keep], lengths[keep]
    empty = np.empty(0, dtype=np.int64)
    if len(offsets) == 0:
        return empty, empty.copy(), empty.copy()
    _, stripe, starts, ends = _cut(offsets, lengths, layout.stripe_size)
    return starts, ends - starts, stripe % layout.n_controllers


def _cut(
    starts: np.ndarray, lengths: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut positive-length runs at every multiple of ``size``.

    Returns ``(run, unit, lo, hi)`` per piece, in run order: piece
    ``[lo, hi)`` of run ``run`` lies within ``[unit·size, (unit+1)·size)``.
    """
    first = starts // size
    npieces = (starts + lengths - 1) // size - first + 1
    run_of = np.repeat(np.arange(len(starts), dtype=np.int64), npieces)
    piece_first = np.cumsum(npieces) - npieces
    within = np.arange(len(run_of), dtype=np.int64) - np.repeat(piece_first, npieces)
    unit = first[run_of] + within
    lo = np.maximum(unit * size, starts[run_of])
    hi = np.minimum((unit + 1) * size, (starts + lengths)[run_of])
    return run_of, unit, lo, hi


def controller_batches(
    layout: StripeLayout,
    offsets: np.ndarray,
    lengths: np.ndarray,
    max_bytes: int,
    start: int = 0,
) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """Order a run list into single-controller requests.

    Returns ``(controller, offsets, lengths)`` batches, each at most
    ``max_bytes``, interleaved round-robin over the controllers beginning
    at ``start`` — callers that stagger ``start`` (e.g. by rank) hit
    disjoint controller queues on their first requests and keep every
    controller streaming.

    Each controller's pieces form one byte stream, cut into batches at
    every multiple of ``max_bytes`` (a run crossing a cut is split, so
    every batch but the last is full), and round ``r`` issues every
    controller's ``r``-th batch; all controllers are handled in one pass.
    """
    poff, plen, pctl = split_runs_by_stripe(layout, offsets, lengths)
    if len(poff) == 0:
        return []
    # Group pieces by controller (file order kept within a group), then
    # re-merge exactly-adjacent pieces: that undoes the stripe cut wherever
    # consecutive stripes landed on the same controller.
    order = np.argsort(pctl, kind="stable")
    so, sl, sc = poff[order], plen[order], pctl[order]
    new = np.empty(len(so), dtype=bool)
    new[0] = True
    new[1:] = (sc[1:] != sc[:-1]) | (so[1:] != so[:-1] + sl[:-1])
    first = np.flatnonzero(new)
    mo, ml, mc = so[first], np.add.reduceat(sl, first), sc[first]
    # Byte position of each merged run within its controller's stream.
    group = np.empty(len(mc), dtype=bool)
    group[0] = True
    np.not_equal(mc[1:], mc[:-1], out=group[1:])
    rs = np.cumsum(ml) - ml
    rs -= rs[group][np.cumsum(group) - 1]
    # Cut those streams at multiples of max_bytes: a piece's unit is its
    # batch's round.
    run_of, rnd, lo, hi = _cut(rs, ml, max_bytes)
    p_off = mo[run_of] + (lo - rs[run_of])
    p_len = hi - lo
    # Pieces are sorted by (controller, round): each batch is a slice.
    ctl = mc[run_of]
    cut = np.empty(len(ctl), dtype=bool)
    cut[0] = True
    cut[1:] = (ctl[1:] != ctl[:-1]) | (rnd[1:] != rnd[:-1])
    bstart = np.flatnonzero(cut)
    bend = np.append(bstart[1:], len(ctl))
    bctl = ctl[bstart]
    n = layout.n_controllers
    issue = np.lexsort(((bctl - start) % n, rnd[bstart]))
    return [
        (c, p_off[a:z], p_len[a:z])
        for c, a, z in zip(bctl[issue].tolist(), bstart[issue].tolist(),
                           bend[issue].tolist())
    ]

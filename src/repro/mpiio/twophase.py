"""Two-phase (collective-buffering) I/O, ROMIO style.

Collective read/write of noncontiguous interleaved data proceeds in two
phases instead of thousands of tiny independent requests:

1. **Exchange** — the file range covered by the call is split into
   contiguous *file domains*, one per aggregator rank (``cb_nodes`` of
   them, stripe-aligned).  Every rank splits its byte runs by domain and
   ships ``(offsets, lengths, data)`` segments to the owning aggregators
   with one ``alltoallv``.
2. **Access** — each aggregator coalesces the segments it received into
   maximal contiguous *union runs* and accesses the file system in at most
   ``cb_buffer_size``-byte requests, each a streaming transfer.  Requests
   are scheduled striping-aware (:mod:`repro.pfs.scheduler`): every batch
   targets a single controller, and aggregators stagger their starting
   controller by rank so a collective drives all controllers concurrently.

Writes resolve overlapping segments deterministically: segments are applied
in source-rank order, so the highest writing rank wins byte-wise (matters
for SDM's ghost-inclusive map arrays, where overlapping values are equal
anyway).  Reads are the mirror image with a second ``alltoallv`` returning
data.

All data movement is real numpy traffic; all timing (exchange cost,
aggregator memcpy, controller contention) comes from the machine model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mpi.communicator import Communicator
from repro.mpi.ops import MAX, MIN
from repro.mpiio.hints import Hints
from repro.pfs.blockstore import gather_runs, scatter_runs
from repro.pfs.file import PFSHandle
from repro.pfs.filesystem import FileSystem
from repro.pfs.scheduler import controller_batches
from repro.simt.process import Process

__all__ = [
    "file_domain_bounds",
    "split_runs_by_bounds",
    "union_runs",
    "collective_write",
    "collective_read",
]

_NO_OFFSET = 1 << 62


def file_domain_bounds(glo: int, ghi: int, naggs: int, align: int) -> np.ndarray:
    """Domain boundaries: ``naggs+1`` positions splitting [glo, ghi).

    Interior bounds are aligned down to ``align`` (stripe size), so one
    stripe is never shared by two aggregators.
    """
    if ghi <= glo:
        raise ValueError(f"empty global range [{glo}, {ghi})")
    raw = glo + ((ghi - glo) * np.arange(naggs + 1, dtype=np.int64)) // naggs
    bounds = (raw // align) * align
    bounds[0] = glo
    bounds[-1] = ghi
    return np.maximum.accumulate(bounds)


def split_runs_by_bounds(
    offsets: np.ndarray, lengths: np.ndarray, bounds: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Clip sorted non-overlapping runs into each ``[bounds[d], bounds[d+1])``.

    Returns one ``(offsets, lengths)`` pair per domain; a run crossing a
    boundary contributes a clipped piece to both sides.  Data order is
    preserved: concatenating the pieces domain-by-domain reproduces the
    original byte stream.
    """
    ends = offsets + lengths
    out: List[Tuple[np.ndarray, np.ndarray]] = []
    for d in range(len(bounds) - 1):
        lo, hi = int(bounds[d]), int(bounds[d + 1])
        i0 = int(np.searchsorted(ends, lo, side="right"))
        i1 = int(np.searchsorted(offsets, hi, side="left"))
        if i0 >= i1:
            out.append(
                (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
            )
            continue
        o = offsets[i0:i1].copy()
        l = lengths[i0:i1].copy()
        if o[0] < lo:
            l[0] -= lo - o[0]
            o[0] = lo
        if o[-1] + l[-1] > hi:
            l[-1] = hi - o[-1]
        out.append((o, l))
    return out


def union_runs(offsets: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Maximal contiguous intervals covering possibly-overlapping runs."""
    if len(offsets) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.argsort(offsets, kind="stable")
    so = offsets[order]
    se = so + lengths[order]
    running_end = np.maximum.accumulate(se)
    new = np.empty(len(so), dtype=bool)
    new[0] = True
    np.greater(so[1:], running_end[:-1], out=new[1:])
    starts_idx = np.flatnonzero(new)
    uo = so[starts_idx]
    ue = np.maximum.reduceat(se, starts_idx)
    return uo, ue - uo


def _union_positions(
    offsets: np.ndarray, uo: np.ndarray, ustart: np.ndarray
) -> np.ndarray:
    """Position of each file offset in union space (the aggregator's
    scratch buffer: the union runs ``uo`` back to back, run ``k`` starting
    at ``ustart[k]``)."""
    k = np.searchsorted(uo, offsets, side="right") - 1
    return ustart[k] + (offsets - uo[k])


def _gather_segments(
    recv: Sequence[Optional[tuple]],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Concatenate per-source segment tuples (src-rank order).

    Returns (offsets, lengths, data-or-None, per-source piece counts).
    """
    offs, lens, datas, counts = [], [], [], []
    for entry in recv:
        if entry is None:
            counts.append(0)
            continue
        o, l = entry[0], entry[1]
        counts.append(len(o))
        offs.append(o)
        lens.append(l)
        if len(entry) > 2 and entry[2] is not None:
            datas.append(entry[2])
    if not offs:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            None,
            np.array(counts, dtype=np.int64),
        )
    data = np.concatenate(datas) if datas else None
    return (
        np.concatenate(offs),
        np.concatenate(lens),
        data,
        np.array(counts, dtype=np.int64),
    )


def _local_extent(offsets: np.ndarray, lengths: np.ndarray) -> Tuple[int, int]:
    if len(offsets) == 0:
        return _NO_OFFSET, -1
    return int(offsets[0]), int(offsets[-1] + lengths[-1])


def collective_write(
    comm: Communicator,
    proc: Process,
    fs: FileSystem,
    handle: PFSHandle,
    offsets: np.ndarray,
    lengths: np.ndarray,
    data: np.ndarray,
    hints: Hints,
) -> int:
    """Two-phase collective write of this rank's runs; returns local bytes."""
    handle.check_writable()
    fs.runs_submitted += len(offsets)
    raw = np.asarray(data).reshape(-1).view(np.uint8)
    lo, hi = _local_extent(offsets, lengths)
    glo = comm.allreduce(lo, op=MIN)
    ghi = comm.allreduce(hi, op=MAX)
    if ghi <= glo:
        comm.barrier()
        return 0
    naggs = hints.resolve_cb_nodes(comm.size, fs.machine.storage.n_controllers)
    bounds = file_domain_bounds(glo, ghi, naggs, fs.machine.storage.stripe_size)
    pieces = split_runs_by_bounds(offsets, lengths, bounds)

    sends: List[Optional[tuple]] = [None] * comm.size
    pos = 0
    for d, (o, l) in enumerate(pieces):
        nb = int(l.sum())
        if len(o):
            sends[d] = (o, l, raw[pos : pos + nb])
        pos += nb
    recv = comm.alltoallv(sends)

    if comm.rank < naggs:
        seg_off, seg_len, seg_data, _counts = _gather_segments(recv)
        if len(seg_off):
            uo, ul = union_runs(seg_off, seg_len)
            ustart = np.cumsum(ul, dtype=np.int64) - ul
            scratch = np.zeros(int(ul.sum()), dtype=np.uint8)
            # Src-rank order: the highest rank wins overlapping bytes.
            scatter_runs(
                scratch, _union_positions(seg_off, uo, ustart), seg_len,
                seg_data,
            )
            proc.hold(fs.machine.compute.copy_time(len(seg_data)))
            # Striping-aware access: single-controller batches, staggered
            # by rank so concurrent aggregators start on disjoint
            # controller queues.  Batches are arbitrary sub-runs of the
            # union, so each gathers its scratch bytes by union position
            # instead of a sequential cursor.
            layout = handle.file.layout
            for ctl, b_off, b_len in controller_batches(
                layout, uo, ul, hints.cb_buffer_size,
                start=comm.rank % layout.n_controllers,
            ):
                batch = gather_runs(
                    scratch, _union_positions(b_off, uo, ustart), b_len
                )
                fs.write(proc, handle, b_off, b_len, batch, controller=ctl)
    comm.barrier()
    return int(lengths.sum())


def collective_read(
    comm: Communicator,
    proc: Process,
    fs: FileSystem,
    handle: PFSHandle,
    offsets: np.ndarray,
    lengths: np.ndarray,
    hints: Hints,
) -> np.ndarray:
    """Two-phase collective read; returns this rank's bytes in run order."""
    handle.check_readable()
    fs.runs_submitted += len(offsets)
    lo, hi = _local_extent(offsets, lengths)
    glo = comm.allreduce(lo, op=MIN)
    ghi = comm.allreduce(hi, op=MAX)
    total_local = int(lengths.sum())
    if ghi <= glo:
        comm.barrier()
        return np.empty(0, dtype=np.uint8)
    naggs = hints.resolve_cb_nodes(comm.size, fs.machine.storage.n_controllers)
    bounds = file_domain_bounds(glo, ghi, naggs, fs.machine.storage.stripe_size)
    pieces = split_runs_by_bounds(offsets, lengths, bounds)

    sends: List[Optional[tuple]] = [None] * comm.size
    for d, (o, l) in enumerate(pieces):
        if len(o):
            sends[d] = (o, l)
    recv = comm.alltoallv(sends)

    replies: List[Optional[np.ndarray]] = [None] * comm.size
    if comm.rank < naggs:
        seg_off, seg_len, _nodata, counts = _gather_segments(recv)
        if len(seg_off):
            uo, ul = union_runs(seg_off, seg_len)
            ustart = np.cumsum(ul, dtype=np.int64) - ul
            scratch = np.empty(int(ul.sum()), dtype=np.uint8)
            layout = handle.file.layout
            for ctl, b_off, b_len in controller_batches(
                layout, uo, ul, hints.cb_buffer_size,
                start=comm.rank % layout.n_controllers,
            ):
                scatter_runs(
                    scratch, _union_positions(b_off, uo, ustart), b_len,
                    fs.read(proc, handle, b_off, b_len, controller=ctl),
                )
            # All requested bytes, src-rank order.
            gathered = gather_runs(
                scratch, _union_positions(seg_off, uo, ustart), seg_len
            )
            proc.hold(fs.machine.compute.copy_time(len(gathered)))
            # Split back per source rank.
            piece_idx = 0
            byte_pos = 0
            for src in range(comm.size):
                n_pieces = int(counts[src])
                if n_pieces == 0:
                    continue
                nb = int(seg_len[piece_idx : piece_idx + n_pieces].sum())
                replies[src] = gathered[byte_pos : byte_pos + nb]
                piece_idx += n_pieces
                byte_pos += nb
    back = comm.alltoallv(replies)

    out = np.empty(total_local, dtype=np.uint8)
    pos = 0
    for d, (o, l) in enumerate(pieces):
        nb = int(l.sum())
        if nb:
            chunk = back[d]
            out[pos : pos + nb] = chunk
            pos += nb
    return out

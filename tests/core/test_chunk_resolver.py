"""Chunk position resolution: the rank-ordered walk of
``_chunk_positions`` against the candidate merge it replaced."""

from typing import List

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.datapath import _chunk_indexes, _chunk_positions
from repro.dtypes import DOUBLE
from repro.metadb.schema import ChunkRecord


def _reference_chunk_positions(
    f, chunks, dtype, wanted, cache=None, version=0, preloaded=None,
):
    """The concatenate + stable-argsort resolver, verbatim."""
    pos = np.full(len(wanted), -1, dtype=np.int64)
    if len(wanted) == 0:
        return pos
    lo, hi = int(wanted[0]), int(wanted[-1])
    esize = dtype.size
    live = [
        ch for ch in sorted(chunks, key=lambda c: c.rank)
        if ch.num_elements and ch.gid_max >= lo and ch.gid_min <= hi
    ]
    if not live:
        return pos
    blocks = _chunk_indexes(f, live, cache, version, preloaded)
    cand_gid: List[np.ndarray] = []
    cand_pos: List[np.ndarray] = []
    for ch in live:  # ascending rank: later candidates override earlier
        if ch.index_offset == ch.data_offset:
            step = max(ch.gid_step, 1)
            sel = (wanted >= ch.gid_min) & (wanted <= ch.gid_max)
            if step > 1:
                sel &= (wanted - ch.gid_min) % step == 0
            g = wanted[sel]
            p = ch.data_offset + ((g - ch.gid_min) // step) * esize
        else:
            cidx = blocks[(ch.index_offset, ch.num_elements)]
            a = int(np.searchsorted(cidx, lo))
            b = int(np.searchsorted(cidx, hi, side="right"))
            if b - a <= len(wanted):
                # Bulk read: the chunk's in-range slice is the smaller
                # side — contribute it wholesale.
                g = cidx[a:b]
                p = ch.data_offset + np.arange(a, b, dtype=np.int64) * esize
            else:
                # Sparse read (catalog viewers): probing wanted into the
                # block bounds candidates by O(wanted), not O(chunk).
                j = np.searchsorted(cidx, wanted)
                inb = j < len(cidx)
                m = np.zeros(len(wanted), dtype=bool)
                m[inb] = cidx[j[inb]] == wanted[inb]
                g = wanted[m]
                p = ch.data_offset + j[m] * esize
        cand_gid.append(g)
        cand_pos.append(p)
    gid = np.concatenate(cand_gid)
    gpos = np.concatenate(cand_pos)
    if len(gid) == 0:
        return pos
    order = np.argsort(gid, kind="stable")  # ties keep rank order
    gid, gpos = gid[order], gpos[order]
    last = np.r_[gid[1:] != gid[:-1], True]
    gid, gpos = gid[last], gpos[last]
    j = np.searchsorted(gid, wanted)
    inb = j < len(gid)
    hit = np.zeros(len(wanted), dtype=bool)
    hit[inb] = gid[j[inb]] == wanted[inb]
    pos[hit] = gpos[j[hit]]
    return pos


_UNIVERSE = 120
"""Chunk gids lie in ``[0, _UNIVERSE)``; wanted gids may lie beyond."""

_arith = st.tuples(
    st.just("arith"), st.integers(0, 7),                 # kind, rank
    st.integers(0, _UNIVERSE - 1), st.integers(1, 4),    # gid_min, step
    st.integers(0, 40),                                  # count (0: empty)
)
_indexed = st.tuples(
    st.just("index"), st.integers(0, 7),
    st.sets(st.integers(0, _UNIVERSE - 1), max_size=_UNIVERSE),
)
chunk_specs = st.lists(st.one_of(_arith, _indexed), max_size=8)
wanted_lists = st.lists(st.integers(0, _UNIVERSE + 20), max_size=160)


def _build(specs):
    """ChunkRecords at distinct file offsets, and every indexed chunk's
    block keyed as ``_chunk_indexes`` returns it."""
    chunks, blocks = [], {}
    for i, spec in enumerate(specs):
        base = 1_000_000 * (i + 1)
        if spec[0] == "arith":
            _, rank, gmin, step, count = spec
            gmax = gmin + step * (count - 1) if count else -1
            chunks.append(ChunkRecord(
                rank=rank, gid_min=gmin if count else 0, gid_max=gmax,
                num_elements=count, index_offset=base, data_offset=base,
                gid_step=step,
            ))
        else:
            _, rank, gids = spec
            cidx = np.array(sorted(gids), dtype=np.int64)
            n = len(cidx)
            chunks.append(ChunkRecord(
                rank=rank,
                gid_min=int(cidx[0]) if n else 0,
                gid_max=int(cidx[-1]) if n else -1,
                num_elements=n, index_offset=base,
                data_offset=base + 8 * n,
            ))
            if n:
                blocks[(base, n)] = cidx
    return chunks, blocks


@settings(max_examples=300, deadline=None)
@given(chunk_specs, wanted_lists)
@example([], [])                                              # nothing at all
@example([("arith", 0, 0, 1, 40)], [])                        # empty wanted
@example([("arith", 0, 0, 1, 40)], [130, 135, 140])           # outside all
@example([("arith", 2, 0, 1, 40), ("arith", 1, 10, 1, 40),
          ("index", 0, {5, 15, 25, 35})], list(range(50)))    # overlaps
@example([("arith", 0, 3, 3, 30), ("arith", 1, 4, 2, 20)],
         [3, 4, 5, 6, 6, 9, 10, 12, 90, 93])                  # gid_step > 1
@example([("index", 0, set(range(0, 120, 2)))], [2, 4, 7])    # block > wanted
@example([("index", 3, {10, 11}), ("index", 1, {11, 12})],
         list(range(5, 20)))                                  # block < wanted
@example([("index", 1, {7, 8, 9}), ("arith", 0, 7, 1, 3)],
         [7, 7, 8, 8, 8, 9, 9])                               # duplicate wanted
@example([("arith", 1, 0, 1, 0), ("index", 0, set())], [0, 1])  # empty chunks
def test_walk_matches_candidate_merge(specs, wanted):
    chunks, blocks = _build(specs)
    wanted = np.array(sorted(wanted), dtype=np.int64)
    got = _chunk_positions(None, chunks, DOUBLE, wanted, None, 0, blocks)
    want = _reference_chunk_positions(None, chunks, DOUBLE, wanted, None, 0,
                                      blocks)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)


def test_highest_rank_wins_regardless_of_row_order():
    """Three ranks cover gid 5; the chunk list is not in rank order."""
    specs = [("arith", 2, 0, 1, 10), ("arith", 0, 0, 1, 10),
             ("index", 1, {5, 6})]
    chunks, blocks = _build(specs)
    wanted = np.array([4, 5, 6], dtype=np.int64)
    pos = _chunk_positions(None, chunks, DOUBLE, wanted, None, 0, blocks)
    rank2 = chunks[0].data_offset
    assert pos.tolist() == [rank2 + 4 * 8, rank2 + 5 * 8, rank2 + 6 * 8]

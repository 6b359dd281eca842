"""Striping-aware run scheduling: the one-pass ``controller_batches``
against the per-controller loop it replaced."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pfs import StripeLayout
from repro.pfs.scheduler import controller_batches, split_runs_by_stripe


def _merge_adjacent(offsets, lengths):
    """Re-merge exactly-adjacent pieces."""
    if len(offsets) <= 1:
        return offsets, lengths
    new = np.empty(len(offsets), dtype=bool)
    new[0] = True
    np.not_equal(offsets[1:], offsets[:-1] + lengths[:-1], out=new[1:])
    starts_idx = np.flatnonzero(new)
    group_last = np.concatenate((starts_idx[1:], [len(offsets)])) - 1
    mo = offsets[starts_idx]
    return mo, offsets[group_last] + lengths[group_last] - mo


def size_batches(offsets, lengths, max_bytes):
    """Split one run list into requests of at most ``max_bytes`` each,
    full to capacity (cuts at multiples of ``max_bytes`` in the runs'
    cumulative byte space) — the per-controller step of the reference."""
    keep = lengths > 0
    offsets, lengths = offsets[keep], lengths[keep]
    if len(offsets) == 0:
        return []
    cum = np.cumsum(lengths, dtype=np.int64)
    total = int(cum[-1])
    run_start = cum - lengths
    cuts = np.arange(max_bytes, total, max_bytes, dtype=np.int64)
    piece_start = np.union1d(run_start, cuts)
    piece_len = np.diff(np.concatenate((piece_start, [total])))
    run_idx = np.searchsorted(cum, piece_start, side="right")
    piece_off = offsets[run_idx] + (piece_start - run_start[run_idx])
    splits = np.searchsorted(piece_start, cuts)
    bounds = np.concatenate(([0], splits, [len(piece_start)]))
    return [
        (piece_off[a:b], piece_len[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]


def _reference_controller_batches(layout, offsets, lengths, max_bytes, start=0):
    """The pre-vectorization scheduler, kept as the oracle: per controller,
    merge its pieces and size-batch them, then deal the queues out round
    by round starting at ``start``."""
    poff, plen, pctl = split_runs_by_stripe(layout, offsets, lengths)
    queues = []
    for ctl in range(layout.n_controllers):
        sel = pctl == ctl
        if not sel.any():
            queues.append([])
            continue
        co, cl = _merge_adjacent(poff[sel], plen[sel])
        queues.append(
            [(ctl, bo, bl) for bo, bl in size_batches(co, cl, max_bytes)]
        )
    out = []
    depth = max((len(q) for q in queues), default=0)
    n = layout.n_controllers
    for round_ in range(depth):
        for c in range(n):
            q = queues[(start + c) % n]
            if round_ < len(q):
                out.append(q[round_])
    return out


def _runs(spec):
    """Sorted non-overlapping runs from ``(hole, length)`` pairs."""
    offsets, lengths = [], []
    cursor = 0
    for hole, ln in spec:
        cursor += hole
        offsets.append(cursor)
        lengths.append(ln)
        cursor += ln
    return np.array(offsets, dtype=np.int64), np.array(lengths, dtype=np.int64)


def _assert_same_batches(got, want):
    assert len(got) == len(want)
    for (gc, go, gl), (wc, wo, wl) in zip(got, want):
        assert type(gc) is type(wc) and gc == wc
        assert go.dtype == wo.dtype and gl.dtype == wl.dtype
        assert go.tolist() == wo.tolist()
        assert gl.tolist() == wl.tolist()


@settings(max_examples=300, deadline=None)
@given(
    spec=st.lists(st.tuples(st.integers(0, 90), st.integers(0, 150)),
                  max_size=30),
    stripe=st.integers(1, 64),
    n_controllers=st.integers(1, 6),
    max_bytes=st.integers(1, 300),
    start=st.integers(0, 20),
)
@example(spec=[(0, 40), (3, 17), (0, 0), (5, 60)], stripe=1,
         n_controllers=3, max_bytes=7, start=1)            # stripe size 1
@example(spec=[(0, 100), (10, 30), (2, 90)], stripe=16,
         n_controllers=1, max_bytes=50, start=0)           # one controller
@example(spec=[(0, 0), (4, 0), (9, 0)], stripe=8,
         n_controllers=2, max_bytes=10, start=0)           # zero-length runs
@example(spec=[(1, 120), (7, 33)], stripe=10,
         n_controllers=4, max_bytes=25, start=9)           # start >= n
@example(spec=[(0, 200), (0, 1)], stripe=64,
         n_controllers=3, max_bytes=5, start=2)            # batch < stripe
def test_controller_batches_match_reference(spec, stripe, n_controllers,
                                            max_bytes, start):
    offsets, lengths = _runs(spec)
    layout = StripeLayout(stripe_size=stripe, n_controllers=n_controllers)
    _assert_same_batches(
        controller_batches(layout, offsets, lengths, max_bytes, start=start),
        _reference_controller_batches(layout, offsets, lengths, max_bytes,
                                      start=start),
    )


def test_controller_batches_round_robin_from_start():
    layout = StripeLayout(stripe_size=10, n_controllers=3)
    offsets = np.array([0], dtype=np.int64)
    lengths = np.array([60], dtype=np.int64)  # two stripes per controller
    got = controller_batches(layout, offsets, lengths, max_bytes=10, start=2)
    assert [c for c, _, _ in got] == [2, 0, 1, 2, 0, 1]
    assert [o.tolist() for _, o, _ in got] == [[20], [0], [10], [50], [30], [40]]
    assert controller_batches(layout, offsets[:0], lengths[:0], 10) == []

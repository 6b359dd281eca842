"""The run-copy kernel (``gather_runs``/``scatter_runs``) against a
byte-by-byte reference, on both sides of the loop/vectorized threshold
and at every copy unit."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pfs.blockstore import (
    _LOOP_THRESHOLD,
    _copy_unit,
    gather_runs,
    scatter_runs,
)


def _reference_gather(src, offsets, lengths):
    """One byte at a time, in run order."""
    out = []
    for o, l in zip(offsets.tolist(), lengths.tolist()):
        for b in range(o, o + l):
            out.append(src[b])
    return np.array(out, dtype=np.uint8)


def _reference_scatter(dst, offsets, lengths, data):
    """One byte at a time, in run order: a later run overwrites."""
    pos = 0
    for o, l in zip(offsets.tolist(), lengths.tolist()):
        for b in range(o, o + l):
            dst[b] = data[pos]
            pos += 1


def _arrays(offsets, lengths):
    return (np.array(offsets, dtype=np.int64).reshape(-1),
            np.array(lengths, dtype=np.int64).reshape(-1))


@st.composite
def run_lists(draw):
    """``(offsets, lengths, slack)``: runs in ``unit``-byte words at a
    random unit, optionally one run skewed off it (an odd offset with
    even lengths, or the reverse), zero-length runs and overlaps
    included; ``slack`` bytes pad the buffer past the last run end."""
    unit = draw(st.sampled_from([1, 2, 4, 8]))
    n = draw(st.integers(0, 3 * _LOOP_THRESHOLD))
    words = st.lists(st.integers(0, 48), min_size=n, max_size=n)
    offsets = [unit * w for w in draw(words)]
    lengths = [unit * (w % 5) for w in draw(words)]
    if n:
        skew = draw(st.sampled_from([None, "offset", "length"]))
        i = draw(st.integers(0, n - 1))
        if skew == "offset":
            offsets[i] += 1
        elif skew == "length":
            lengths[i] += 1
    return offsets, lengths, draw(st.integers(0, 9))


def _buffer(offsets, lengths, slack, seed):
    end = int((offsets + lengths).max()) if len(offsets) else 0
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, end + slack, dtype=np.uint8)


_N = _LOOP_THRESHOLD


@settings(max_examples=200, deadline=None)
@given(run_lists())
@example(([], [], 0))                                    # no runs
@example(([5, 9], [0, 0], 3))                            # zero-length only
@example(([3], [8], 0))                                  # odd offset, even length
@example(([8], [3], 1))                                  # even offset, odd length
@example(([8 * i for i in range(_N - 1)], [8] * (_N - 1), 0))  # loop side
@example(([8 * i for i in range(_N)], [8] * _N, 7))     # vectorized side
@example(([2 * i + 1 for i in range(_N)], [2] * _N, 0))  # odd offsets, unit 1
@example(([4 * i for i in range(_N)], [4] * (_N - 1) + [3], 2))  # one odd length
@example(([0] * _N, [0] * (_N - 1) + [16], 0))          # zero-length runs, vectorized
def test_gather_matches_bytewise_reference(case):
    offsets, lengths = _arrays(case[0], case[1])
    src = _buffer(offsets, lengths, case[2], seed=len(offsets))
    before = src.copy()
    got = gather_runs(src, offsets, lengths)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, _reference_gather(src, offsets, lengths))
    np.testing.assert_array_equal(src, before)
    assert not np.shares_memory(got, src)


@settings(max_examples=200, deadline=None)
@given(run_lists())
@example(([], [], 0))
@example(([5, 9], [0, 0], 3))
@example(([3], [8], 0))
@example(([8], [3], 1))
@example(([0] * (_N - 1), [8] * (_N - 1), 0))            # loop side, all overlap
@example(([0] * _N, [8] * _N, 0))                        # vectorized, all overlap
@example(([8 * (i % 3) for i in range(2 * _N)], [16] * (2 * _N), 5))
@example(([2 * i + 1 for i in range(_N)], [2] * _N, 0))
def test_scatter_matches_bytewise_reference_last_wins(case):
    offsets, lengths = _arrays(case[0], case[1])
    dst = _buffer(offsets, lengths, case[2], seed=1)
    want = dst.copy()
    data = np.random.default_rng(2).integers(
        0, 256, int(lengths.sum()), dtype=np.uint8
    )
    data_before = data.copy()
    scatter_runs(dst, offsets, lengths, data)
    _reference_scatter(want, offsets, lengths, data)
    assert dst.dtype == np.uint8
    np.testing.assert_array_equal(dst, want)
    np.testing.assert_array_equal(data, data_before)


def test_gather_scatter_accept_typed_payloads():
    """A float64 payload is stored as its bytes and read back as them."""
    vals = np.arange(2 * _N, dtype=np.float64) * 1.5
    offsets = np.arange(2 * _N, dtype=np.int64) * 16
    lengths = np.full(2 * _N, 8, dtype=np.int64)
    buf = np.zeros(32 * _N, dtype=np.uint8)
    scatter_runs(buf, offsets, lengths, vals)
    np.testing.assert_array_equal(
        gather_runs(buf, offsets, lengths).view(np.float64), vals
    )


def test_copy_unit_is_widest_common_power_of_two():
    def unit(offsets, lengths):
        return _copy_unit(*_arrays(offsets, lengths))

    assert unit([], []) == 8
    assert unit([0, 16, 64], [8, 24, 0]) == 8
    assert unit([0, 16], [8, 12]) == 4
    assert unit([2, 16], [8, 8]) == 2
    assert unit([3, 16], [8, 8]) == 1
    assert unit([8, 16], [8, 1]) == 1
    assert unit([1024], [4096]) == 8   # never wider than 8 bytes

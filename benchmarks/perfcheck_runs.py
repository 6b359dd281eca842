"""Guard the data path's two host-time kernels against their byte-wise
and hash-based predecessors.

Every noncontiguous copy of the I/O stack goes through
``repro.pfs.blockstore.gather_runs``/``scatter_runs``, which index
*words* (the widest unit dividing every offset and length) instead of
bytes, and the chunked read dedups its positions with
``repro.core.datapath.sorted_unique`` (one sort plus an adjacent-
difference mask) instead of ``np.unique``.  This check times each
against the code it replaced, in one process and interleaved, and fails
unless both ratios reach ``MIN_RATIO``:

* gather of a fixed 512 KiB run list (8,192 runs of 64 bytes, 8-byte
  aligned, 64-byte holes) vs a byte-granular index expansion;
* dedup of 8,192 int64 values (about half of them repeated) vs
  ``np.unique`` (its hash path on numpy >= 2.3).

Both sides are checked for identical output first.  Ratios of two
timings on the same machine do not depend on its speed.

Run directly (no input; it takes about a second)::

    python benchmarks/perfcheck_runs.py
"""

import sys
from time import perf_counter

import numpy as np

from repro.core.datapath import sorted_unique
from repro.pfs.blockstore import gather_runs

MIN_RATIO = 2.0
REPEATS = 30


def byte_gather(src, offsets, lengths):
    """The pre-kernel copy: one int64 index per byte."""
    total = int(lengths.sum())
    run_first = np.cumsum(lengths) - lengths
    idx = np.repeat(offsets, lengths) + (
        np.arange(total, dtype=np.int64) - np.repeat(run_first, lengths)
    )
    return src[idx]


def best_ratio(old, new):
    """min(old time) / min(new time), the two sides interleaved."""
    t_old, t_new = [], []
    for _ in range(REPEATS):
        t0 = perf_counter()
        old()
        t1 = perf_counter()
        new()
        t2 = perf_counter()
        t_old.append(t1 - t0)
        t_new.append(t2 - t1)
    return min(t_old) / min(t_new), min(t_old), min(t_new)


def main() -> int:
    rng = np.random.default_rng(7)
    n_runs, run_len = 8192, 64
    src = rng.integers(0, 256, 2 * n_runs * run_len, dtype=np.uint8)
    offsets = np.arange(n_runs, dtype=np.int64) * (2 * run_len)
    lengths = np.full(n_runs, run_len, dtype=np.int64)
    values = rng.integers(0, 4096, 8192).astype(np.int64) * 8

    failures = []
    if not np.array_equal(
        gather_runs(src, offsets, lengths), byte_gather(src, offsets, lengths)
    ):
        failures.append("gather_runs differs from the byte-wise gather")
    if not np.array_equal(sorted_unique(values), np.unique(values)):
        failures.append("sorted_unique differs from np.unique")

    checks = {
        "gather 512 KiB / 64 B runs": best_ratio(
            lambda: byte_gather(src, offsets, lengths),
            lambda: gather_runs(src, offsets, lengths),
        ),
        "dedup 8192 int64": best_ratio(
            lambda: np.unique(values), lambda: sorted_unique(values)
        ),
    }
    for name, (ratio, t_old, t_new) in checks.items():
        verdict = "ok" if ratio >= MIN_RATIO else "FAIL"
        print(f"perfcheck: {name}: {t_old * 1e3:.3f} -> {t_new * 1e3:.3f} ms"
              f" = {ratio:.1f}x (>= {MIN_RATIO}x) {verdict}")
        if ratio < MIN_RATIO:
            failures.append(f"{name}: {ratio:.2f}x < {MIN_RATIO}x")
    for msg in failures:
        print(f"perfcheck FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print("perfcheck: run-copy kernel and position dedup keep their speedups")
    return 0


if __name__ == "__main__":
    sys.exit(main())

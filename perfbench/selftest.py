"""Self-test: the benchmark's checks cannot pass vacuously.

Runs shrunken copies of the workloads once with the true expectations
(every check must pass, at two seeds) and once per corrupted expectation
(each must be counted as a failure)::

    python3 perfbench/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

import run


def main() -> int:
    W = run._load_program()
    tiny = {
        "chunked": dataclasses.replace(
            W.WORKLOADS["chunked-lifecycle"], cells=4, nprocs=4,
            jobs=(W.PipelineJob(
                level=W.Organization.LEVEL_2, timesteps=4, window=2,
                datasets=(W.Dataset("perm", "perm", size=4096),
                          W.Dataset("block", "block", size=4096))),
                  W.PipelineJob(view=True))),
        "fun3d": dataclasses.replace(
            W.WORKLOADS["fun3d-checkpoint"], cells=4, nprocs=4),
    }

    def wrong_value(name, gids, t):
        # Off by one at every fifth global id: any read of enough
        # elements must notice.
        return W.expected_values(name, gids, t) + (gids % 5 == 0)

    cases = [
        ("chunked", 1, W.Expectations(), False),
        ("chunked", 2, W.Expectations(), False),
        ("fun3d", 1, W.Expectations(), False),
        ("fun3d", 2, W.Expectations(), False),
        ("chunked", 1, W.Expectations(values=wrong_value), True),
        ("fun3d", 1, W.Expectations(values=wrong_value), True),
        ("fun3d", 1, W.Expectations(fun3d_ratio=7.4), True),
        ("fun3d", 1, W.Expectations(history_skew=1), True),
    ]
    bad = 0
    for name, seed, expect, corrupted in cases:
        out = W.run_iteration(W.build_inputs(tiny[name], seed), expect)
        ok = (out.failed > 0) if corrupted else (out.failed == 0)
        ok = ok and out.attempted > 0 and bool(
            np.isfinite(list(out.metrics.values())).all())
        bad += not ok
        label = "corrupted" if corrupted else "true"
        print(f"{'ok ' if ok else 'BAD'} {name:8s} seed {seed} {label:9s} "
              f"expectation: {out.failed}/{out.attempted} checks failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

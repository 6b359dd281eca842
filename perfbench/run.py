"""Benchmark driver: one workload, one seed, a fixed measuring time.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fun3d-checkpoint --seed 1 \\
        --seconds 38 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones: host times are medians
over the iterations that fit in ``--seconds`` (and over the input builds
timed before each of them), virtual metrics are the
(identical) values every iteration produced.  With ``--trace 1`` they are
the per-layer ones, from traced iterations alternated with untraced ones
so the tracing overhead is measured too.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PER_ITERATION = 3
"""Timed input builds before each iteration; ``setup_s`` is their median.
Interleaved with the iterations, they sample the same stretch of time as
``host_s``, so one slow spell of the host cannot set the whole figure."""
END_TO_END_UNITS = {
    "setup_s": "s", "host_s": "s", "ok_frac": "ratio", "virtual_s": "s",
    "import_s": "s", "index_distri_s": "s", "restart_s": "s",
    "write_MBps": "MB/s", "read_MBps": "MB/s", "catalog_read_MBps": "MB/s",
    "reorganize_s": "s", "drain_s": "s", "space_amp": "ratio",
}


def _load_program():
    """Import the program from this checkout's ``src`` tree (pure Python:
    nothing to build).  Exits non-zero when the tree is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program sources under {src}\n")
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads  # noqa: E402  (needs the paths above)
    return workloads


def _iterations(budget, run_one):
    """Run ``run_one`` at least twice, then while another iteration of
    the mean length still fits in ``budget`` seconds."""
    start = time.perf_counter()
    outs = []
    while True:
        gc.collect()
        outs.append(run_one(len(outs)))
        used = time.perf_counter() - start
        if len(outs) >= 2 and used + used / len(outs) > budget:
            return outs


def _same(a, b, keys):
    """Keys whose values differ between two iterations (bit for bit)."""
    return [k for k in keys if a[k] != b[k]]


def end_to_end(W, workload, seed, seconds):
    setups = []

    def run_one(i):
        for _ in range(SETUP_PER_ITERATION):
            gc.collect()
            t0 = time.perf_counter()
            inp = W.build_inputs(workload, seed)
            setups.append(time.perf_counter() - t0)
        gc.collect()
        return W.run_iteration(inp)

    outs = _iterations(seconds, run_one)
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    errors = [e for o in outs for e in o.errors]
    first = outs[0]
    virtual = [k for k in first.metrics if k != "host_s"]
    for o in outs[1:]:
        # Determinism: at one seed every virtual metric and every counter
        # repeats exactly.
        attempted += 1
        diff = (_same(first.metrics, o.metrics, virtual)
                + _same(first.counts, o.counts, first.counts))
        if diff:
            failed += 1
            errors.append(f"iterations differ in {diff}")
    metrics = dict(first.metrics)
    metrics["host_s"] = statistics.median(o.metrics["host_s"] for o in outs)
    metrics["setup_s"] = statistics.median(setups)
    metrics["ok_frac"] = 1.0 - failed / attempted
    info = {"iterations": len(outs),
            "host_s_all": [round(o.metrics["host_s"], 4) for o in outs],
            "setup_s_all": [round(t, 4) for t in setups]}
    return metrics, attempted, failed, errors, info


def _quantiles(per_rank):
    """p50/p90 over collective calls of the max-over-ranks duration."""
    import numpy as np
    calls = [max(c) for c in zip(*per_rank)] if per_rank else []
    if not calls:
        return 0.0, 0.0, 0
    p50, p90 = np.percentile(calls, [50, 90])
    return float(p50), float(p90), len(calls)


def per_layer(W, workload, seed, seconds):
    """Alternate untraced and traced iterations; per-layer metrics from
    the traced ones, tracing overhead from the pairs."""
    from tracer import Tracer

    inp = W.build_inputs(workload, seed)
    tracers = []

    def run_one(i):
        if i % 2 == 0:
            return W.run_iteration(inp)
        tr = Tracer([W]).install()
        t0 = time.perf_counter()
        try:
            out = W.run_iteration(inp, tracer=tr)
        finally:
            wall = time.perf_counter() - t0
            tr.uninstall()
        tracers.append((tr, wall, out))
        return out

    outs = _iterations(seconds, run_one)
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    errors = [e for o in outs for e in o.errors]
    ref = outs[0]
    virtual = [k for k in ref.metrics if k != "host_s"]
    for o in outs[1:]:
        # Tracing must not perturb virtual time or any counter.
        attempted += 1
        diff = (_same(ref.metrics, o.metrics, virtual)
                + _same(ref.counts, o.counts, ref.counts))
        if diff:
            failed += 1
            errors.append(f"traced and untraced iterations differ in {diff}")
    for tr, wall, _ in tracers:
        attempted += 1
        ledger = tr.ledger_errors(wall)
        if ledger:
            failed += 1
            errors.extend(ledger[:5])

    # Set-up layers, traced once outside the timed iterations.
    tr_setup = Tracer([W]).install()
    try:
        W.build_inputs(workload, seed)
    finally:
        tr_setup.uninstall()
    setup_host = tr_setup.host_by_layer()

    c = collections.defaultdict(float, ref.counts)  # a crashed job counts nothing
    med = statistics.median
    host = {k: med(tr.host_by_layer().get(k, 0.0) for tr, _, _ in tracers)
            for k in ("simt", "mpi", "mpiio", "pfs", "metadb", "core",
                      "maint", "apps", "bench")}
    last = tracers[-1][0]
    busy, wait = last.virtual_by_layer("busy"), last.virtual_by_layer("wait")
    m = {
        "simt.events": c["simt.events"],
        "simt.switches": last.switches,
        "simt.host_s": host["simt"],
        "simt.us_per_switch": 1e6 * host["simt"] / max(last.switches, 1),
        "mpi.msgs": c["mpi.msgs"],
        "mpi.bytes": c["mpi.bytes"],
        "mpi.collectives": c["mpi.collectives"],
        "mpi.wait_vs": wait.get("mpi", 0.0),
        "mpi.host_s": host["mpi"],
        "mpiio.calls": last.entries.get("mpiio", 0),
        "mpiio.runs_submitted": c["mpiio.runs_submitted"],
        "mpiio.busy_vs": busy.get("mpiio", 0.0),
        "mpiio.host_s": host["mpiio"],
        "pfs.requests": c["pfs.requests"],
        "pfs.bytes": c["pfs.bytes"],
        "pfs.runs_serviced": c["pfs.runs_serviced"],
        "pfs.opens": c["pfs.opens"],
        "pfs.busy_vs": busy.get("pfs", 0.0),
        "pfs.wait_vs": wait.get("pfs", 0.0),
        "pfs.host_s": host["pfs"],
        "metadb.statements": c["metadb.statements"],
        "metadb.rows_examined": c["metadb.rows_examined"],
        "metadb.rows_per_stmt": c["metadb.rows_examined"] / max(c["metadb.statements"], 1),
        "metadb.busy_vs": busy.get("metadb", 0.0),
        "metadb.wait_vs": wait.get("metadb", 0.0),
        "metadb.host_s": host["metadb"],
    }
    for key, label in (("write", "SDM.write"), ("read", "SDM.read"),
                       ("read_slice", "SDMCatalog.read_slice")):
        p50, p90, n = _quantiles(last.durations(label))
        m[f"core.{key}_vs_p50"], m[f"core.{key}_vs_p90"] = p50, p90
        m[f"core.{key}_n"] = n
    lookups = c["core.index_cache_hits"] + c["core.index_cache_misses"]
    m["core.index_cache_lookups"] = lookups
    m["core.index_cache_hit_ratio"] = (c["core.index_cache_hits"] / lookups
                                       if lookups else 0.0)
    m["core.coalesce_ratio"] = (c["pfs.runs_serviced"] / c["mpiio.runs_submitted"]
                                if c["mpiio.runs_submitted"] else 0.0)
    m["core.reorganize_enqueue_vs"] = c["enqueue_s"]
    m["core.host_s"] = host["core"]
    m["maint.jobs"] = c["maint.jobs"]
    m["maint.busy_vs"] = busy.get("maint", 0.0)
    m["maint.bytes_reclaimed"] = c["maint.bytes_reclaimed"]
    m["maint.host_s"] = host["maint"]
    m["maint.proc_busy_vs"] = sum(sum(th.busy.values()) for th in last.threads
                                  if th.stack[0] == "maint")
    m["partition.host_s"] = setup_host.get("partition", 0.0)
    m["partition.edge_cut"] = inp.edge_cut
    m["mesh.host_s"] = setup_host.get("mesh", 0.0)
    m["apps.busy_vs"] = busy.get("apps", 0.0)
    m["apps.host_s"] = host["apps"]
    m["bench.host_s"] = host["bench"]
    plain = [o.metrics["host_s"] for i, o in enumerate(outs) if i % 2 == 0]
    traced = [w for _, w, _ in tracers]
    m["trace.overhead"] = med(traced) / med(plain)

    out_dir = os.path.join(ROOT, ".perfbench_out")
    n_spans = last.write_chrome_trace(
        os.path.join(out_dir, f"trace_{workload.name}_s{seed}.json"))
    info = {"iterations": len(outs), "traced": len(tracers),
            "spans_written": n_spans}
    return m, attempted, failed, errors, info


def _unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", "_vs", "_vs_p50", "_vs_p90")):
        return "s"
    if name.endswith("us_per_switch"):
        return "us"
    if name.endswith("bytes") or name.endswith("bytes_reclaimed"):
        return "B"
    if name.endswith(("ratio", "overhead", "rows_per_stmt")):
        return "ratio"
    return "count"


def _confine_to_one_cpu() -> int:
    """Run the whole benchmark on one CPU, as ``taskset -c N`` would.

    The simulator hands control between its rank threads one at a time.
    Spread over two vCPUs every hand-off is a cross-CPU wake-up, whose
    latency swings with the load the hypervisor puts on the other vCPU.
    Confined, a hand-off is an ordinary context switch.  Must run before
    any thread starts, because threads inherit the affinity."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    W = _load_program()
    if args.workload not in W.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(W.WORKLOADS)}\n")
        return 2
    workload = W.WORKLOADS[args.workload]
    cpu = _confine_to_one_cpu()
    t_start = time.perf_counter()
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, errors, info = measure(
        W, workload, args.seed, args.seconds)
    for e in errors[:20]:
        sys.stderr.write(f"perfbench: FAILED {e}\n")
    info["cpu"] = cpu
    info["wall_s"] = round(time.perf_counter() - t_start, 3)
    sys.stderr.write(f"perfbench: {args.workload} seed {args.seed}: "
                     f"{json.dumps(info)}\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": _unit(k)}
                    for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

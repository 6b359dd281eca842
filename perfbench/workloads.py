"""The benchmark's three workloads: inputs, rank programs, checks, metrics.

Every workload is a short closed-loop sequence of simulated ``mpirun``
jobs.  The first job of a sequence imports the mesh cold and registers the
index-distribution history; every later job starts from the previous job's
services snapshot and must hit that history (the paper's restart path).
Two rank programs run the jobs:

* :func:`repro.apps.fun3d.driver.run_fun3d_sdm` -- the SDM-ported FUN3D
  template, for the paper's Figure 5 and Figure 6 jobs;
* :func:`pipeline_rank` (below) -- the same Figure 3 import flow, then a
  checkpoint whose values the benchmark can compute from (dataset,
  global id, timestep), so every read is checked element by element.  It
  optionally reorganizes a trailing window of timesteps in the
  background, compacts, reads everything back while that backlog drains,
  and runs an ``SDMCatalog`` viewer over every run in the database.

The workload seed sets the mesh data, the partitioner seed, the
permutation maps and the viewer subsets; the program only ever sees the
generated inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.fun3d.driver import Fun3dRunConfig, run_fun3d_sdm
from repro.bench.figures import PAPER
from repro.bench.harness import scaled_machine
from repro.config import origin2000
from repro.core import SDM, Organization, sdm_services, snapshot_services
from repro.core.catalog import SDMCatalog
from repro.core.layout import CANONICAL, CHUNKED
from repro.dtypes import DOUBLE
from repro.errors import ReproError
from repro.mesh import fun3d_like_problem, install_mesh_file, mesh_file_layout
from repro.mesh.generators import FUN3D_EDGE_ARRAYS, FUN3D_NODE_ARRAYS
from repro.mpi import mpirun
from repro.partition import Graph, edge_cut, multilevel_kway
from repro.pfs.filesystem import FileSystem
from repro.simt.simulator import Simulator

from probe import Probe

MB = 1024.0 * 1024.0
APP = "fun3d"
MESH_FILE = "uns3d.msh"
FUN3D_RATIO = 7.5
"""``run_fun3d_sdm`` reads back p, q, p-q, 0.5p and five copies of p, so
each rank's read checksum is 7.5 times its write checksum."""


# ---------------------------------------------------------------------------
# Workload descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """One checkpoint dataset of :func:`pipeline_rank`.

    ``kind`` picks the data map: ``"mesh"`` -- this rank's owned mesh
    nodes, each expanded to ``factor`` consecutive elements (FUN3D's
    node-sized and 5x-node-sized outputs; irregular, so chunked writes
    store index blocks); ``"perm"`` -- a contiguous piece of a seeded
    random permutation of ``size`` elements (indexed chunks); ``"block"``
    -- a contiguous block of ``size`` elements (arithmetic chunks).
    """

    name: str
    kind: str
    factor: int = 1
    size: int = 0


@dataclass(frozen=True)
class Fun3dJob:
    """A ``run_fun3d_sdm`` job with the given config overrides."""

    config: Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class PipelineJob:
    """A :func:`pipeline_rank` job."""

    level: Organization = Organization.LEVEL_2
    timesteps: int = 0
    datasets: Tuple[Dataset, ...] = ()
    window: int = 0
    """Trailing timesteps reorganized in the background (then their
    chunked files compacted), while every step is read back."""
    view: bool = False
    """Run the ``SDMCatalog`` viewer over every run in the database."""


@dataclass(frozen=True)
class Workload:
    """A named job sequence at one rank count, on the time-dilated
    (``scaled``) or the plain Origin2000 model."""

    name: str
    cells: int
    nprocs: int
    scaled: bool
    jobs: Tuple[object, ...]


FUN3D_OUTPUTS = ("p", "q", "r", "s", "res")
"""What ``run_fun3d_sdm`` checkpoints: four node-sized datasets and one
five-times-node-sized one."""

FUN3D_SHAPED = tuple(Dataset(f"c{n}", "mesh", 1) for n in "pqrs") + (
    Dataset("cres", "mesh", 5),
)
"""The same shapes, written by :func:`pipeline_rank` with checkable values."""


def _fun3d(**kw) -> Fun3dJob:
    return Fun3dJob(tuple(sorted(kw.items())))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fun3d-checkpoint", cells=8, nprocs=8, scaled=True,
            jobs=(
                # Figure 5 cold (import + ring index distribution, history
                # registered) and Figure 6 at the two extremes of file
                # count, canonical (two-phase collective) order, read back;
                # the second job restarts from history.
                _fun3d(organization=Organization.LEVEL_1, timesteps=2,
                       register_history=True, read_back=True),
                _fun3d(organization=Organization.LEVEL_3, timesteps=2,
                       register_history=False, read_back=True),
                # Level 2 in chunked order: the deferred exchange paid by
                # background reorganization, then the viewer.
                PipelineJob(level=Organization.LEVEL_2, timesteps=1,
                            datasets=FUN3D_SHAPED, window=1, view=True),
            ),
        ),
        Workload(
            "chunked-lifecycle", cells=6, nprocs=8, scaled=False,
            jobs=(
                PipelineJob(level=Organization.LEVEL_2, timesteps=16,
                            datasets=(Dataset("perm", "perm", size=65536),
                                      Dataset("block", "block", size=65536)),
                            window=4),
                PipelineJob(view=True),
            ),
        ),
        Workload(
            "metadata-churn", cells=6, nprocs=4, scaled=False,
            jobs=(
                PipelineJob(level=Organization.LEVEL_1, timesteps=32,
                            datasets=(Dataset("perm", "perm", size=8192),
                                      Dataset("block", "block", size=8192)),
                            window=4),
                PipelineJob(view=True),
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# Inputs (the timed set-up)
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything the jobs receive, generated from the workload seed."""

    workload: Workload
    seed: int
    problem: object
    part: np.ndarray
    edge_cut: int
    scale: float
    machine: object
    perms: Dict[str, np.ndarray]
    cuts: Dict[str, np.ndarray]
    """Per ``perm`` dataset, the ranks' piece boundaries: seeded and
    uneven (each piece 0.8-1.2x the mean), like a real decomposition."""


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the mesh, partition it, install the mesh file once (to a
    throwaway file system, so set-up pays for it) and draw the
    permutation maps."""
    problem = fun3d_like_problem(workload.cells, seed=seed)
    mesh = problem.mesh
    graph = Graph.from_edges(mesh.n_nodes, mesh.edge1, mesh.edge2)
    part = multilevel_kway(graph, workload.nprocs, seed=seed)
    sim = Simulator()
    install_mesh_file(FileSystem(sim, origin2000()), MESH_FILE, mesh.edge1,
                      mesh.edge2, problem.edge_arrays, problem.node_arrays)
    scale = PAPER["fun3d_edges"] / mesh.n_edges if workload.scaled else 1.0
    machine = (scaled_machine(origin2000(), scale) if workload.scaled
               else origin2000())
    rng = np.random.default_rng(seed)
    perms, cuts = {}, {}
    for job in workload.jobs:
        for d in getattr(job, "datasets", ()):
            if d.kind == "perm" and d.name not in perms:
                perms[d.name] = rng.permutation(d.size).astype(np.int64)
                weights = np.cumsum(rng.uniform(0.8, 1.2, workload.nprocs))
                cuts[d.name] = np.concatenate(
                    [[0], np.round(weights / weights[-1] * d.size)]
                ).astype(np.int64)
    return Inputs(workload, seed, problem, part, edge_cut(graph, part),
                  scale, machine, perms, cuts)


# ---------------------------------------------------------------------------
# Expected values (the independent reference the reads are checked against)
# ---------------------------------------------------------------------------

_CODES = {"p": 1, "cp": 1, "cq": 2, "cr": 3, "cs": 4, "cres": 5, "perm": 6,
          "block": 7}


def expected_values(name: str, gids: np.ndarray, timestep: int) -> np.ndarray:
    """The value :func:`pipeline_rank` writes at each global id (and, by
    default, what its reads are checked against): exact in double
    precision for every size this benchmark uses."""
    return (gids.astype(np.float64) + float(timestep + 1) * 2.0 ** 22
            + float(_CODES[name]) * 2.0 ** 30)


@dataclass
class Expectations:
    """What the checks compare against; the self-test corrupts one field
    to prove a wrong expectation is counted as a failure."""

    values: Callable[[str, np.ndarray, int], np.ndarray] = expected_values
    fun3d_ratio: float = FUN3D_RATIO
    history_skew: int = 0
    """Added to the cold job's per-rank counts before the warm jobs are
    compared with them."""


# ---------------------------------------------------------------------------
# The pipeline rank program
# ---------------------------------------------------------------------------


def _dataset_map(d: Dataset, inp: Inputs, owned: np.ndarray, rank: int,
                 size: int) -> np.ndarray:
    if d.kind == "mesh":
        return (owned[:, None] * d.factor
                + np.arange(d.factor)[None, :]).reshape(-1).astype(np.int64)
    lo, hi = (d.size * rank) // size, (d.size * (rank + 1)) // size
    if d.kind == "perm":
        cuts = inp.cuts[d.name]
        return np.sort(inp.perms[d.name][cuts[rank]:cuts[rank + 1]])
    return np.arange(lo, hi, dtype=np.int64)


def _global_size(d: Dataset, inp: Inputs) -> int:
    return inp.problem.mesh.n_nodes * d.factor if d.kind == "mesh" else d.size


def viewer_subset(seed: int, runid: int, name: str, timestep: int,
                  n: int, rank: int, size: int) -> np.ndarray:
    """This rank's piece of the seeded random quarter of ``n`` ids."""
    rng = np.random.default_rng((seed, runid, _CODES[name], timestep))
    chosen = np.sort(rng.choice(n, size=max(n // 4, 1), replace=False))
    return np.array_split(chosen, size)[rank].astype(np.int64)


def pipeline_rank(ctx, inp: Inputs, job: PipelineJob, expect: Expectations):
    """One rank of a :class:`PipelineJob` (SPMD function)."""
    mesh = inp.problem.mesh
    out = {"attempted": 0, "failed": 0, "bytes_written": 0, "bytes_read": 0,
           "bytes_viewed": 0, "t_written": None, "space": None,
           "errors": []}

    def check(ok: bool, what: str) -> None:
        out["attempted"] += 1
        if not ok:
            out["failed"] += 1
            out["errors"].append(what)

    layout = mesh_file_layout(mesh.n_edges, mesh.n_nodes,
                              list(FUN3D_EDGE_ARRAYS), list(FUN3D_NODE_ARRAYS))
    sdm = SDM(ctx, APP, organization=job.level, problem_size=mesh.n_edges,
              num_timesteps=job.timesteps, storage_order=CHUNKED,
              reorganize_mode="background", policy="static")
    # The Figure 3 import flow, exactly as the FUN3D template runs it.
    sdm.make_importlist(
        ["edge1", "edge2", *FUN3D_EDGE_ARRAYS, *FUN3D_NODE_ARRAYS],
        file_name=MESH_FILE, index_names=["edge1", "edge2"],
    )
    with ctx.phase("import"):
        chunk = sdm.import_index("edge1", "edge2", layout.offset("edge1"),
                                 layout.offset("edge2"), mesh.n_edges)
    with ctx.phase("index_distri"):
        sdm.partition_table(inp.part)
        local = sdm.partition_index(inp.part, chunk)
    out["used_history"] = chunk is None
    out["n_local_edges"] = local.n_local_edges
    out["n_local_nodes"] = local.n_local_nodes
    # A history hit is decided on rank 0 and broadcast, so this branch is
    # uniform across ranks.
    if chunk is not None:
        sdm.index_registry(local)
    with ctx.phase("import"):
        for name in FUN3D_EDGE_ARRAYS:
            got = sdm.import_irregular(name, layout.offset(name),
                                       mesh.n_edges, local.edge_map)
            check(np.array_equal(got, inp.problem.edge_arrays[name][local.edge_map]),
                  f"import {name}")
        for name in FUN3D_NODE_ARRAYS:
            got = sdm.import_irregular(name, layout.offset(name),
                                       mesh.n_nodes, local.node_map)
            check(np.array_equal(got, inp.problem.node_arrays[name][local.node_map]),
                  f"import {name}")
    sdm.release_importlist()

    if job.timesteps:
        datalist = sdm.make_datalist([d.name for d in job.datasets])
        for attrs, d in zip(datalist, job.datasets):
            sdm.associate_attributes([attrs], data_type=DOUBLE,
                                     global_size=_global_size(d, inp))
        handle = sdm.set_attributes(datalist)
        maps = {d.name: _dataset_map(d, inp, local.owned_nodes, ctx.rank,
                                     ctx.size) for d in job.datasets}
        for name, m in maps.items():
            sdm.data_view(handle, name, m)
        for t in range(job.timesteps):
            with ctx.phase("write"):
                for name, m in maps.items():
                    sdm.write(handle, name, t, expected_values(name, m, t))
                    out["bytes_written"] += 8 * len(m)
        out["t_written"] = ctx.now
        steps = list(range(job.timesteps))
        window = steps[job.timesteps - job.window:] if job.window else []
        if window:
            with ctx.phase("reorganize"):
                for t in window:
                    for name in maps:
                        sdm.reorganize(handle, name, t, mode="background")
                for fname in sdm.chunked_checkpoint_files(handle, window):
                    sdm.compact(fname, mode="background")
        # Read everything back while the backlog above still drains.
        for t in steps:
            for name, m in maps.items():
                buf = np.empty(len(m))
                with ctx.phase("read"):
                    sdm.read(handle, name, t, buf)
                out["bytes_read"] += 8 * len(m)
                check(np.array_equal(buf, expect.values(name, m, t)),
                      f"read {name} t{t}")
        sdm.drain_maintenance()
        if ctx.rank == 0:
            files = {sdm.checkpoint_file(handle, name, t, storage_order=o)
                     for name in maps for t in steps
                     for o in (CANONICAL, CHUNKED)}
            fs = ctx.service("fs")
            on_disk = sum(fs.lookup(f).size for f in files if fs.exists(f))
            live = sum(r[4] for f in files
                       for r in sdm.tables.executions_in_file(f))
            out["space"] = (on_disk, live)

    if job.view:
        catalog = SDMCatalog.attach(ctx)
        for run in catalog.runs():
            recs = catalog.datasets(run.runid)
            if sorted(r.name for r in recs) == sorted(FUN3D_OUTPUTS):
                _view_fun3d(ctx, catalog, inp, run.runid, out, check)
                continue
            for rec in recs:
                for t in catalog.timesteps(run.runid, rec.name):
                    piece = viewer_subset(inp.seed, run.runid, rec.name, t,
                                          rec.global_size, ctx.rank, ctx.size)
                    with ctx.phase("view"):
                        got = catalog.read_slice(run.runid, rec.name, t, piece)
                    out["bytes_viewed"] += 8 * len(piece)
                    check(np.array_equal(got, expect.values(rec.name, piece, t)),
                          f"view run{run.runid} {rec.name} t{t}")
        catalog.release()

    sdm.finalize(handle if job.timesteps else None)
    return out


def _view_fun3d(ctx, catalog, inp: Inputs, runid: int, out, check) -> None:
    """View a ``run_fun3d_sdm`` run: read all five outputs at one seeded
    quarter of the nodes and check the identities the template writes
    them with (r = p - q, s = 0.5 p, res = five copies of p), which hold
    exactly in floating point."""
    n = inp.problem.mesh.n_nodes
    for t in catalog.timesteps(runid, "p"):
        g = viewer_subset(inp.seed, runid, "p", t, n, ctx.rank, ctx.size)
        got = {}
        with ctx.phase("view"):
            for name in ("p", "q", "r", "s"):
                got[name] = catalog.read_slice(runid, name, t, g)
            big = (g[:, None] * 5 + np.arange(5)[None, :]).reshape(-1)
            got["res"] = catalog.read_slice(runid, "res", t, big)
        out["bytes_viewed"] += 8 * 9 * len(g)
        p = got["p"]
        check(np.array_equal(got["r"], p - got["q"])
              and np.array_equal(got["s"], p * 0.5)
              and np.array_equal(got["res"].reshape(-1, 5),
                                 np.repeat(p[:, None], 5, axis=1)),
              f"view run{runid} fun3d t{t}")


# ---------------------------------------------------------------------------
# Running one iteration of a workload
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One iteration's end-to-end figures and its check tallies."""

    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    """Counters that must repeat exactly at one seed."""
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)


def _services(inp: Inputs, seed_from=None):
    base = sdm_services(seed_from=seed_from)
    problem = inp.problem

    def factory(sim, machine):
        services = base(sim, machine)
        if not services["fs"].exists(MESH_FILE):
            install_mesh_file(services["fs"], MESH_FILE, problem.mesh.edge1,
                              problem.mesh.edge2, problem.edge_arrays,
                              problem.node_arrays)
        return services

    return factory


def run_iteration(inp: Inputs, expect: Optional[Expectations] = None,
                  tracer=None) -> Outcome:
    """Run the workload's job sequence once; returns metrics, exact
    counters and check tallies.  ``tracer``, if given, is told when each
    simulated process starts and ends."""
    expect = expect or Expectations()
    wl = inp.workload
    # On a workload with FUN3D jobs, write_MBps and read_MBps are the
    # Figure 6 two-phase collective figures: FUN3D jobs' phases only.  Its
    # chunked pipeline job feeds the viewer and maintenance metrics.
    fig6 = any(isinstance(job, Fun3dJob) for job in wl.jobs)
    res = Outcome()
    probe = Probe(tracer).install()
    acc = {k: 0.0 for k in (
        "import_s", "index_distri_s", "restart_s", "write_s", "read_s",
        "view_s", "reorganize_s", "enqueue_s", "drain_s", "virtual_s",
        "bytes_written", "bytes_read", "bytes_viewed", "file_bytes",
        "live_bytes")}
    cold_counts = None
    snap = None
    jobs = []
    t0 = time.perf_counter()
    try:
        for i, job in enumerate(wl.jobs):
            warm = i > 0
            n_logged = len(probe.finished)
            n_reorganized = len(probe.reorganized)
            if isinstance(job, Fun3dJob):
                cfg = Fun3dRunConfig(mesh_file=MESH_FILE, **dict(job.config))

                def prog(ctx, cfg=cfg):
                    return run_fun3d_sdm(ctx, inp.problem, inp.part, cfg)
            else:
                def prog(ctx, job=job):
                    return pipeline_rank(ctx, inp, job, expect)
            try:
                jr = mpirun(prog, wl.nprocs, machine=inp.machine,
                            services=_services(inp, seed_from=snap))
                if i + 1 < len(wl.jobs):
                    snap = snapshot_services(jr)
            except ReproError as exc:
                res.attempted += 1
                res.failed += 1
                res.errors.append(f"job {i} raised: {exc!r}")
                break
            jobs.append(jr)
            vals = jr.values
            # History: the cold job imports, every later job must hit.
            rows = [v if isinstance(v, dict) else vars(v) for v in vals]
            counts = [(v["n_local_edges"], v["n_local_nodes"]) for v in rows]
            hist = [v["used_history"] for v in rows]
            res.attempted += 1
            if warm:
                ok = all(hist) and counts == cold_counts
            else:
                ok = not any(hist)
                cold_counts = [(e + expect.history_skew, n) for e, n in counts]
            if not ok:
                res.failed += 1
                res.errors.append(f"job {i}: history check failed")
            phase = jr.phase_max
            if warm:
                acc["restart_s"] += phase("import") + phase("index_distri")
            else:
                acc["import_s"] += phase("import")
                acc["index_distri_s"] += phase("index_distri")
            io = ("write", "read") if isinstance(job, Fun3dJob) or not fig6 else ()
            for p in io + ("view",):
                acc[f"{p}_s"] += phase(p)
            acc["enqueue_s"] += phase("reorganize")
            acc["virtual_s"] += jr.elapsed
            if isinstance(job, Fun3dJob):
                written = sum(v.bytes_written for v in vals)
                acc["bytes_written"] += written
                if dict(job.config).get("read_back"):
                    acc["bytes_read"] += written
                    for r, v in enumerate(vals):
                        res.attempted += 1
                        want = expect.fun3d_ratio * v.checksum
                        if abs(v.read_checksum - want) > 1e-9 * max(abs(want), 1.0):
                            res.failed += 1
                            res.errors.append(f"job {i} rank {r}: read "
                                              f"checksum {v.read_checksum!r} "
                                              f"!= {want!r}")
                continue
            for v in vals:
                res.attempted += v["attempted"]
                res.failed += v["failed"]
                res.errors.extend(f"job {i}: {e}" for e in v["errors"])
                for k in ("bytes_viewed",) + (("bytes_written", "bytes_read")
                                              if io else ()):
                    acc[k] += v[k]
            if job.window:
                t_written = max(v["t_written"] for v in vals)
                drained = max((t for n, t in probe.finished[n_logged:]
                               if n.startswith("maint-w")), default=t_written)
                acc["drain_s"] += drained - t_written
                acc["reorganize_s"] += max(probe.reorganized[n_reorganized:],
                                           default=t_written) - t_written
                on_disk, live = vals[0]["space"]
                acc["file_bytes"] += on_disk
                acc["live_bytes"] += live
    finally:
        probe.uninstall()
    res.metrics["host_s"] = time.perf_counter() - t0
    s = inp.scale
    m = res.metrics
    for k in ("import_s", "index_distri_s", "restart_s", "reorganize_s",
              "drain_s", "virtual_s"):
        m[k] = acc[k]
    m["write_MBps"] = _ratio(acc["bytes_written"] * s, acc["write_s"]) / MB
    m["read_MBps"] = _ratio(acc["bytes_read"] * s, acc["read_s"]) / MB
    m["catalog_read_MBps"] = _ratio(acc["bytes_viewed"] * s, acc["view_s"]) / MB
    m["space_amp"] = _ratio(acc["file_bytes"], acc["live_bytes"])
    res.counts = {k: acc[k] for k in ("bytes_written", "bytes_read",
                                      "bytes_viewed", "file_bytes",
                                      "live_bytes", "enqueue_s")}
    res.counts.update(layer_counts(jobs, probe))
    return res


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when a failed job left the phase unmeasured
    (the run is then reported incorrect anyway)."""
    return num / den if den else 0.0


def layer_counts(jobs, probe: Probe) -> Dict[str, float]:
    """Per-layer counters summed over a sequence's jobs.  They need no
    tracing, so the untraced and traced runs can be compared on them."""
    c: Dict[str, float] = {}

    def add(key, value):
        c[key] = c.get(key, 0) + value

    for jr in jobs:
        add("simt.events", jr.sim._seq)
        db, fs, maint = (jr.services[k] for k in ("db", "fs", "maint"))
        add("metadb.statements", db.n_statements)
        add("metadb.rows_examined", db.n_rows_examined)
        fss = fs.stats()
        add("pfs.requests", fss["n_requests"])
        add("pfs.bytes", fss["bytes_written"] + fss["bytes_read"])
        add("pfs.opens", fss["n_opens"])
        add("pfs.runs_serviced", fss["runs_serviced"])
        add("mpiio.runs_submitted", fss["runs_submitted"])
        ms = maint.stats()
        add("maint.jobs", ms["executed"])
        add("maint.bytes_reclaimed", ms["bytes_reclaimed"])
    for tr in probe.transports:
        ts = tr.stats()
        add("mpi.msgs", ts["n_p2p_messages"])
        add("mpi.bytes", ts["p2p_bytes"] + sum(ts["coll_bytes"].values()))
        add("mpi.collectives", sum(ts["coll_counts"].values()))
    for cache in probe.caches:
        add("core.index_cache_hits", cache.hits)
        add("core.index_cache_misses", cache.misses)
    return c

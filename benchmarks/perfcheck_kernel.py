"""Guard the simulator kernel's virtual-identity contract.

A faster kernel is welcome; a kernel that changes virtual results is a
bug.  This check runs two small jobs and fails unless each reproduces,
bit for bit, the constants below (recorded with the thread-handshake
kernel the direct hand-off kernel replaced):

* the chunked write/reorganize/read program of ``perfcheck_faults.py``
  (4 ranks, level 2, no fault plan);
* a level-3 FUN3D template run (8 ranks, two checkpoints read back)
  on the time-dilated Origin2000 model.

Compared per job: ``JobResult.elapsed``, every phase's ``phase_max``,
the number of events the simulator scheduled (``sim._seq``) and the
database statements issued (``db.n_statements``).  When a deliberate
model change moves them, the failure message prints the new values to
record here.

A second, separate check pins each job's real thread switches
(``sim.n_handoffs``, recorded with the continuation kernel, where a
file-system request switches threads once however many controllers it
visits).  It is deterministic, so a change that quietly brings back
per-visit switches fails here, not only as a slower host clock.

Run directly (no JSON input; the jobs take seconds)::

    python benchmarks/perfcheck_kernel.py
"""

import sys

from perfcheck_faults import NPROCS, maps_for, program

from repro.apps.fun3d.driver import Fun3dRunConfig, run_fun3d_sdm
from repro.bench.figures import PAPER, _fun3d_services, _fun3d_setup
from repro.bench.harness import scaled_machine
from repro.config import fast_test, origin2000
from repro.core import Organization, sdm_services
from repro.mpi import mpirun

FUN3D_CELLS = 6
FUN3D_NPROCS = 8

EXPECTED = {
    "chunked": {
        "elapsed": 0.0002592658000000002,
        "phase_max": {},
        "events": 456,
        "db_statements": 87,
    },
    "fun3d-l3": {
        "elapsed": 31.44792106407505,
        "phase_max": {
            "import": 8.716527429900925,
            "index_distri": 9.73408723225121,
            "write": 6.4310628288959535,
            "read": 4.889129865644907,
        },
        "events": 10278,
        "db_statements": 70,
    },
}

HANDOFFS = {"chunked": 332, "fun3d-l3": 4478}
"""Real thread switches per job (the thread-per-visit kernel made 356
and 10125)."""


def fingerprint(job):
    """The job's virtual results: elapsed, phase maxima, events, statements."""
    return {
        "elapsed": float(job.elapsed),
        "phase_max": {name: float(job.phase_max(name))
                      for name in job.phase_names()},
        "events": job.sim._seq,
        "db_statements": job.services["db"].n_statements,
    }


def chunked_job():
    maps = maps_for()
    return mpirun(lambda ctx: program(ctx, maps), NPROCS,
                  machine=fast_test(), services=sdm_services())


def fun3d_job():
    problem, part = _fun3d_setup(FUN3D_CELLS, FUN3D_NPROCS)
    machine = scaled_machine(origin2000(),
                             PAPER["fun3d_edges"] / problem.mesh.n_edges)
    cfg = Fun3dRunConfig(organization=Organization.LEVEL_3, timesteps=2,
                         read_back=True)
    return mpirun(lambda ctx: run_fun3d_sdm(ctx, problem, part, cfg),
                  FUN3D_NPROCS, machine=machine,
                  services=_fun3d_services(problem))


def main() -> int:
    failures = []
    for name, job in (("chunked", chunked_job), ("fun3d-l3", fun3d_job)):
        ran = job()
        got = fingerprint(ran)
        want = EXPECTED[name]
        for key, value in got.items():
            status = "ok" if value == want.get(key) else "FAIL"
            print(f"perfcheck: {name} {key} = {value!r} {status}")
        if got != want:
            failures.append(f"{name}: virtual results moved; measured {got!r}")
        handoffs = ran.sim.n_handoffs
        status = "ok" if handoffs == HANDOFFS[name] else "FAIL"
        print(f"perfcheck: {name} handoffs = {handoffs} {status}")
        if handoffs != HANDOFFS[name]:
            failures.append(f"{name}: {handoffs} thread switches, "
                            f"recorded {HANDOFFS[name]}")
    if failures:
        for f in failures:
            print(f"perfcheck: FAIL {f}", file=sys.stderr)
        return 1
    print("perfcheck: kernel reproduces every recorded virtual result "
          "and thread-switch count")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Always-on, zero-virtual-cost probes the untraced run needs too.

The hooks wrap constructors, ``Simulator.spawn`` and the maintenance
worker's reorganize step only -- never a hot path -- so they cost nothing
measurable:

* every simulated process's finish time (``drain_s`` needs the
  maintenance workers', which no public counter exposes), and the
  virtual time each background reorganization finishes
  (``reorganize_s``);
* every :class:`~repro.mpi.transport.Transport` and
  :class:`~repro.core.datapath.IndexBlockCache` a job creates, so their
  counters can be read after the job (neither hangs off ``JobResult``).

The ``Simulator.spawn`` hook is the only one in the benchmark: a traced
iteration hands its :class:`~tracer.Tracer` to the probe, which calls
``tracer.started(proc)``/``tracer.finished(proc)`` around every process.
"""

from __future__ import annotations

from typing import List, Tuple

import repro.core.maintenance as maintenance
from repro.core.datapath import IndexBlockCache
from repro.mpi.transport import Transport
from repro.simt.simulator import Simulator


class Patches:
    """Attribute replacements on modules and classes, undone in reverse
    order.  The original is taken from the owner's own ``__dict__``, so a
    ``staticmethod`` is restored as one."""

    def __init__(self) -> None:
        self._saved = []

    def set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class Probe:
    """Install around one iteration; read the lists afterwards."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.finished: List[Tuple[str, float]] = []
        self.reorganized: List[float] = []
        self.transports: List[Transport] = []
        self.caches: List[IndexBlockCache] = []
        self._patches = Patches()

    def install(self) -> "Probe":
        finished, tracer = self.finished, self.tracer
        spawn = Simulator.spawn

        def hooked_spawn(sim, fn, *args, name=None, **kwargs):
            def body(proc, *a, **kw):
                if tracer is not None:
                    tracer.started(proc)
                try:
                    return fn(proc, *a, **kw)
                finally:
                    finished.append((proc.name, proc.sim.now))
                    if tracer is not None:
                        tracer.finished(proc)
            return spawn(sim, body, *args, name=name, **kwargs)

        def register(cls, into):
            init = cls.__init__

            def wrapper(self, *args, **kwargs):
                init(self, *args, **kwargs)
                into.append(self)
            return wrapper

        reorganized = self.reorganized
        execute_reorganize = maintenance.execute_reorganize

        def reorganize(host, *args, **kwargs):
            out = execute_reorganize(host, *args, **kwargs)
            reorganized.append(host.ctx.proc.now)
            return out

        p = self._patches
        p.set(Simulator, "spawn", hooked_spawn)
        # Looked up by name in the maintenance module, so patched there.
        p.set(maintenance, "execute_reorganize", reorganize)
        p.set(Transport, "__init__", register(Transport, self.transports))
        p.set(IndexBlockCache, "__init__",
              register(IndexBlockCache, self.caches))
        return self

    def uninstall(self) -> None:
        self._patches.undo()

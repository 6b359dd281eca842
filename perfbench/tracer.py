"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points (module-level functions and
public methods, ``__init__`` included) of every module of each layer
package, plus ``Process.hold``/``Process._park`` and ``Simulator.run``.
Process start and finish come from the :class:`~probe.Probe`'s
``Simulator.spawn`` hook, which calls :meth:`Tracer.started` and
:meth:`Tracer.finished`.  A wrapper records a span only where control crosses
from one layer into another; calls inside a layer pass straight through.

Two clocks are kept per simulated process (and for the driver thread):

* **host self time** -- charged to the innermost layer on the thread's
  stack, and stopped at every ``hold``/``park`` so a rank is never
  charged for the ranks that ran while it was parked.  ``simt.host_s`` is
  ``Simulator.run`` wall time minus every process thread's running time:
  the scheduler loop, thread hand-offs and event callbacks.
* **virtual time** -- ``busy`` is ``Process.hold`` time and ``wait`` is
  the rest of ``Process._park`` time, both charged to the innermost layer.

Functions imported by name into other modules (``controller_batches`` in
``mpiio.twophase``, the datapath functions ``core.maintenance`` calls) are
replaced wherever they are looked up, and keep the layer of the module
that defines them.  Nothing here touches virtual time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional

from repro.simt.process import Process
from repro.simt.simulator import Simulator

from probe import Patches

_PACKAGES = (
    ("repro.core.maintenance", "maint"),
    ("repro.core", "core"),
    ("repro.apps", "apps"),
    ("repro.metadb", "metadb"),
    ("repro.mpiio", "mpiio"),
    ("repro.mpi", "mpi"),
    ("repro.pfs", "pfs"),
    ("repro.partition", "partition"),
    ("repro.mesh", "mesh"),
)

SPAN_LIMIT = 200_000
"""Most spans :meth:`Tracer.write_chrome_trace` writes."""


def layer_of_module(name: str) -> Optional[str]:
    """The layer owning a module: its package, with
    ``core.maintenance`` split out as ``maint``.  Besides these layers,
    ``simt`` (the kernel) and ``bench`` (driver code on the main thread)
    are host-time buckets of their own."""
    for prefix, layer in _PACKAGES:
        if name == prefix or name.startswith(prefix + "."):
            return layer
    return None


def base_layer(proc_name: str) -> str:
    """The layer a simulated process's own code belongs to."""
    if proc_name.startswith("rank"):
        return "apps"
    if proc_name.startswith(("maint-w", "history-writer")):
        return "maint"
    return "simt"


class _Thread:
    """One thread's clocks: a layer stack, its open spans and the
    host/virtual totals it has charged."""

    __slots__ = ("name", "proc", "stack", "spans", "t", "in_hold",
                 "host", "busy", "wait", "v_start")

    def __init__(self, name: str, base: str, proc=None) -> None:
        self.name = name
        self.proc = proc
        self.stack = [base]
        self.spans: List[int] = [-1]
        self.t = perf_counter()
        self.in_hold = False
        self.host: Dict[str, float] = {}
        self.busy: Dict[str, float] = {}
        self.wait: Dict[str, float] = {}
        self.v_start = proc.sim.now if proc is not None else 0.0


class Tracer:
    """Install around traced iterations; read the totals afterwards."""

    def __init__(self, bench_modules) -> None:
        """``bench_modules``: benchmark modules that import program
        functions by name; those names are replaced there too."""
        self._bench_modules = list(bench_modules)
        self._tls = threading.local()
        self._patches = Patches()
        self.proc_errors: List[str] = []
        """Per-process ledger violations, found as each process ends."""
        self.threads: List[_Thread] = []
        self.spans: List[list] = []
        """``[label, layer, thread, parent, host0, host1, v0, v1]``."""
        self.entries: Dict[str, int] = {}
        self.switches = 0
        self.simt_host = 0.0
        self._proc_host = 0.0
        self._main: Optional[_Thread] = None

    # ------------------------------------------------------------------
    # Clock bookkeeping (called from wrappers)
    # ------------------------------------------------------------------

    def _charge(self, th: _Thread, now: float) -> None:
        dt = now - th.t
        layer = th.stack[-1]
        th.host[layer] = th.host.get(layer, 0.0) + dt
        if th.proc is not None:
            self._proc_host += dt
        th.t = now

    def _enter(self, th: _Thread, layer: str, label: str) -> None:
        now = perf_counter()
        self._charge(th, now)
        v = th.proc.sim.now if th.proc is not None else None
        self.spans.append([label, layer, th.name, th.spans[-1], now, None,
                           v, None])
        th.spans.append(len(self.spans) - 1)
        th.stack.append(layer)
        self.entries[layer] = self.entries.get(layer, 0) + 1

    def _exit(self, th: _Thread) -> None:
        now = perf_counter()
        self._charge(th, now)
        th.stack.pop()
        span = self.spans[th.spans.pop()]
        span[5] = now
        if th.proc is not None:
            span[7] = th.proc.sim.now

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _wrap(self, fn, layer: str, label: str):
        tls = self._tls
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            th = getattr(tls, "th", None)
            if th is None or th.stack[-1] == layer:
                return fn(*args, **kwargs)
            enter(th, layer, label)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(th)

        return wrapper

    def install(self) -> "Tracer":
        replaced = {}  # id(original function) -> wrapper
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and layer_of_module(n)]
        for mod in modules:
            layer = layer_of_module(mod.__name__)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    replaced[id(obj)] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for mod in modules + self._bench_modules:
            for name, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._patches.set(mod, name, w)
        self._install_kernel_hooks()
        self._main = _Thread("main", "bench")
        self.threads.append(self._main)
        self._tls.th = self._main
        return self

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            label = f"{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                self._patches.set(cls, attr, self._wrap(val, layer, label))
            elif isinstance(val, (staticmethod, classmethod)):
                self._patches.set(cls, attr, type(val)(
                    self._wrap(val.__func__, layer, label)))

    def _install_kernel_hooks(self) -> None:
        tls, tracer = self._tls, self
        hold, park = Process.hold, Process._park
        run = Simulator.run

        def traced_hold(proc, dt):
            th = getattr(tls, "th", None)
            if th is None:
                return hold(proc, dt)
            th.in_hold = True
            try:
                return hold(proc, dt)
            finally:
                th.in_hold = False

        def traced_park(proc, reason):
            th = getattr(tls, "th", None)
            if th is None:
                return park(proc, reason)
            tracer._charge(th, perf_counter())
            v0 = proc.sim.now
            layer = th.stack[-1]
            into = th.busy if th.in_hold else th.wait
            try:
                return park(proc, reason)
            finally:
                into[layer] = into.get(layer, 0.0) + (proc.sim.now - v0)
                tracer.switches += 1
                th.t = perf_counter()

        def traced_run(sim, until=None):
            main = tls.th
            t0 = perf_counter()
            if main is not None:
                tracer._charge(main, t0)
            before = tracer._proc_host
            # Event callbacks run on this thread inside run(); they belong
            # to the kernel's residual, so no layer may charge them.
            tls.th = None
            try:
                return run(sim, until)
            finally:
                t1 = perf_counter()
                tracer.simt_host += (t1 - t0) - (tracer._proc_host - before)
                tls.th = main
                if main is not None:
                    main.t = t1

        self._patches.set(Process, "hold", traced_hold)
        self._patches.set(Process, "_park", traced_park)
        self._patches.set(Simulator, "run", traced_run)

    def uninstall(self) -> None:
        if self._main is not None:
            self._charge(self._main, perf_counter())
        self._tls.th = None
        self._patches.undo()

    # ------------------------------------------------------------------
    # Process start and finish (called by the probe's spawn hook)
    # ------------------------------------------------------------------

    def started(self, proc) -> None:
        """Give the process's thread its clocks and base layer."""
        th = _Thread(proc.name, base_layer(proc.name), proc)
        self.threads.append(th)
        self._tls.th = th
        self.switches += 1

    def finished(self, proc) -> None:
        """Stop the thread's clocks and check its virtual ledger: busy +
        wait over all layers equals the process's lifetime."""
        th = self._tls.th
        self._charge(th, perf_counter())
        self._tls.th = None
        life = proc.sim.now - th.v_start
        got = sum(th.busy.values()) + sum(th.wait.values())
        if abs(got - life) > 1e-9 * max(1.0, abs(life)):
            self.proc_errors.append(
                f"{th.name}: busy+wait {got!r} != lifetime {life!r}")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def host_by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for th in self.threads:
            for layer, dt in th.host.items():
                out[layer] = out.get(layer, 0.0) + dt
        out["simt"] = out.get("simt", 0.0) + self.simt_host
        return out

    def virtual_by_layer(self, kind: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for th in self.threads:
            for layer, dv in getattr(th, kind).items():
                out[layer] = out.get(layer, 0.0) + dv
        return out

    def ledger_errors(self, wall: float) -> List[str]:
        """The two accounting invariants; a non-empty list fails the run.

        * per process, virtual busy + wait over all layers equals its
          lifetime (finish minus start);
        * host self time over all layers plus the kernel residual equals
          the traced wall time, and the residual is not negative (it would
          be if two threads were ever charged for the same interval).
        """
        errors = list(self.proc_errors)
        total = sum(self.host_by_layer().values())
        if self.simt_host < 0:
            errors.append(f"simt.host_s negative: {self.simt_host!r}")
        if abs(total - wall) > 0.01 * wall + 0.005:
            errors.append(f"host ledger {total:.4f}s != wall {wall:.4f}s")
        return errors

    def durations(self, label: str) -> List[List[float]]:
        """Per rank, the virtual durations of each call into ``label``
        (spans of rank processes only, in call order)."""
        per: Dict[str, List[float]] = {}
        for sp in self.spans:
            if sp[0] == label and sp[2].startswith("rank") and sp[7] is not None:
                per.setdefault(sp[2], []).append(sp[7] - sp[6])
        return list(per.values())

    def write_chrome_trace(self, path: str) -> int:
        """Write up to :data:`SPAN_LIMIT` spans as Chrome trace-event JSON (opens in
        chrome://tracing or Perfetto): host clock on the time axis, the
        virtual clock in each event's args."""
        t0 = min((sp[4] for sp in self.spans), default=0.0)
        events = []
        for sp in self.spans[:SPAN_LIMIT]:
            if sp[5] is None:
                continue
            events.append({
                "name": sp[0], "cat": sp[1], "ph": "X", "pid": 0,
                "tid": sp[2], "ts": (sp[4] - t0) * 1e6,
                "dur": (sp[5] - sp[4]) * 1e6,
                "args": {"parent": sp[3], "v0": sp[6], "v1": sp[7]},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)
        return len(events)

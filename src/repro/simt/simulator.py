"""The discrete-event scheduler and virtual clock.

Event-queue entries are ``(time, seq, kind, payload, value)`` tuples ordered
by ``(time, seq)``; ``seq`` is a monotonically increasing counter so
simultaneous events fire in the order they were scheduled, which makes runs
deterministic.  Two event kinds exist:

* ``resume`` — transfer control to a parked :class:`Process` (optionally
  passing it a wake value).  While the process waits through a
  continuation (:meth:`~repro.simt.process.Process.park_with`) the resume
  instead runs its ``step`` inline on the loop thread, exactly like a
  ``call`` callback (it must not park), and control passes to the process
  only at the pop whose step reports the wait over;
* ``call`` — run a plain callback inline.  Callbacks must not park; they
  are used for timed actions that do not belong to any process, such as a
  message arriving in a mailbox.

There is no scheduler thread: the loop runs on whichever thread gives up
control (see :mod:`repro.simt.process`).  When it has nothing left to do it
wakes the :meth:`~Simulator.run` caller, which reports the outcome.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import (
    SimDeadlockError,
    SimError,
    SimParticipantLost,
    SimProcessCrashed,
)
from repro.simt.process import Crashed, Process
from repro.simt.trace import Trace

__all__ = ["Simulator", "FaultPlan"]

_RESUME = 0
_CALL = 1


@dataclass
class FaultPlan:
    """Crash one named process at the Nth hit of a registered fault point.

    Install on a simulator (``sim.fault_plan = FaultPlan(...)``, or via
    :func:`repro.mpi.job.mpirun`'s ``fault_plan`` argument) before the
    run.  While a plan is installed, every :meth:`Process.fault_point`
    hit is appended to :attr:`Simulator.fault_log` as
    ``(process name, point name, nth hit of that pair)`` — an
    *observe-only* plan (:meth:`observe`) therefore enumerates a
    workload's complete crash schedule, which is what the fault property
    harness replays case by case.

    ``occurrence`` counts hits of the exact ``(victim, point)`` pair,
    starting at 1, so ``FaultPlan("flip:published", victim="rank0",
    occurrence=2)`` survives the first flip and dies publishing the
    second.
    """

    point: Optional[str]
    """Fault-point name to crash at (None: observe/record only)."""

    victim: str = "rank0"
    """Name of the process to crash (other processes pass through)."""

    occurrence: int = 1
    """Which hit of ``(victim, point)`` is fatal (1-based)."""

    hits: int = field(default=0, compare=False)
    """Matching ``(victim, point)`` hits seen so far (kernel-maintained)."""

    @classmethod
    def observe(cls) -> "FaultPlan":
        """A plan that never fires but enables fault-point recording."""
        return cls(point=None, victim="")

    def matches(self, proc_name: str, point: str, nth: int) -> bool:
        """True when the ``nth`` hit of ``(proc_name, point)`` is fatal."""
        if self.point is None or point != self.point or proc_name != self.victim:
            return False
        self.hits = nth
        return nth == self.occurrence


class Simulator:
    """Discrete-event simulator: virtual clock plus an event queue.

    Typical usage::

        sim = Simulator()
        sim.spawn(rank_fn, arg0, name="rank0")
        sim.spawn(rank_fn, arg1, name="rank1")
        sim.run()                     # returns when all non-daemon procs end
        print(sim.now)                # total virtual time

    The simulator owns a :class:`~repro.simt.trace.Trace` that subsystems may
    use to record timestamped annotations for debugging and benchmarking.
    """

    def __init__(self, trace: Optional[Trace] = None) -> None:
        self.now: float = 0.0
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.deadlock_reporters: List[Callable[[], str]] = []
        """Callbacks consulted when a deadlock is detected; whatever they
        return is appended to the :class:`SimDeadlockError` message (the
        ``SPMD_VERIFY`` sanitizer registers its per-rank pending-op
        report here)."""
        self.fault_plan: Optional[FaultPlan] = None
        """Installed crash schedule (None: fault injection disabled — the
        ``fault_point`` hook is then a two-attribute no-op)."""
        self.fault_log: List[Tuple[str, str, int]] = []
        """Every fault-point hit seen while a plan was installed:
        ``(process name, point, nth hit of that pair)``."""
        self._fault_hits: dict = {}
        self._queue: List[Tuple[float, int, int, Any, Any]] = []
        self._seq = 0
        self.n_handoffs = 0
        """Real thread switches so far: times the loop released another
        thread's baton.  A resume a continuation absorbs, or one that
        finds its own process next, costs none."""
        self._procs: List[Process] = []
        self._live = 0  # live non-daemon processes
        self._until: Optional[float] = None
        self._error: Optional[BaseException] = None  # raised by a callback
        self._aborting = False
        self._crashed: Optional[Process] = None
        self._finished = False
        self._baton = threading.Lock()  # run() blocks on it while procs run
        self._baton.acquire()

    # ------------------------------------------------------------------
    # Spawning and scheduling
    # ------------------------------------------------------------------

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        daemon: bool = False,
        delay: float = 0.0,
        **kwargs: Any,
    ) -> Process:
        """Create a process running ``fn(proc, *args, **kwargs)``.

        The process starts at virtual time ``now + delay``.  Daemon processes
        are killed when every non-daemon process has finished.
        """
        if self._finished:
            raise SimError("cannot spawn into a finished simulation")
        if name is None:
            name = f"proc{len(self._procs)}"
        proc = Process(self, fn, args, kwargs, name=name, daemon=daemon)
        self._procs.append(proc)
        self._live += not daemon
        proc._thread.start()
        self.schedule_resume(proc, delay=delay)
        return proc

    def schedule_resume(self, proc: Process, delay: float = 0.0, value: Any = None) -> None:
        """Schedule ``proc`` to resume at ``now + delay`` with ``value``.

        ``value`` is returned from the process's pending
        :meth:`~repro.simt.process.Process.park` call.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        self._push(self.now + delay, _RESUME, proc, value)

    def call_at(self, t: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute time ``t``.

        ``fn`` runs on whichever thread holds control when its event is
        popped — never concurrently with a process.  It must not park; it
        may schedule further events.  An exception it raises ends the run
        and is re-raised from :meth:`run`.
        """
        if t < self.now:
            raise ValueError(f"call_at into the past: {t!r} < now={self.now!r}")
        self._push(t, _CALL, fn, None)

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` ``delay`` seconds from now (see :meth:`call_at`)."""
        self.call_at(self.now + delay, fn)

    def _push(self, t: float, kind: int, payload: Any, value: Any) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (t, self._seq, kind, payload, value))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until all non-daemon processes finish (or ``until`` is hit).

        Returns the final virtual time.  Raises
        :class:`~repro.errors.SimProcessCrashed` if any process raised, and
        :class:`~repro.errors.SimDeadlockError` if live processes remain but
        no event can ever wake them.  An exception raised by a ``call``
        callback propagates unchanged.
        """
        if self._finished:
            raise SimError("simulation already finished")
        self._until = until
        self._switch(None)
        failed = self._error is not None or self._crashed is not None
        if not failed and self._queue and (
            self._live or not self._only_daemon_events()
        ):
            return self.now  # paused at ``until``
        if not failed and self._live:
            live = [p for p in self._procs if p.alive and not p.daemon]
            report = ", ".join(f"{p.name}[{p.wait_reason}]" for p in live)
            # Reporters read live state (e.g. the verifier's pending-op
            # map) — consult them before _drain kills the blocked processes.
            extra = ""
            for reporter in self.deadlock_reporters:
                try:
                    extra += "\n  " + reporter()
                except Exception:  # pragma: no cover - diagnostics
                    pass
            crashed = [p for p in self._procs if p.crashed]
            self._drain()
            self._finished = True
            if crashed:
                # Not a deadlock of the survivors' own making: they are
                # rendezvousing with fault-killed peers.  Attribute the
                # stall so the sanitizer's report reads as "participant
                # lost", not "hung".
                dead = ", ".join(f"{p.name}[{p.crash_point}]" for p in crashed)
                raise SimParticipantLost(
                    f"{len(crashed)} process(es) lost to injected "
                    f"faults ({dead}); {len(live)} surviving "
                    f"process(es) blocked on them: {report}{extra}"
                )
            raise SimDeadlockError(
                f"no events pending but {len(live)} process(es) "
                f"blocked: {report}{extra}"
            )
        self._drain()
        self._finished = True
        if self._error is not None:
            raise self._error
        crashed = self._crashed
        if crashed is not None:
            raise SimProcessCrashed(
                f"process {crashed.name!r} raised "
                f"{type(crashed.error).__name__}: {crashed.error}"
            ) from crashed.error
        return self.now

    def _next(self) -> Optional[Process]:
        """Pop events, running callbacks and continuation steps inline,
        until one resumes a live process; return it with its wake value
        set.  Returns None when the run must stop (see :meth:`run` for the
        reasons)."""
        if self._crashed is not None:
            return None
        queue, until = self._queue, self._until
        while queue:
            if not self._live and self._only_daemon_events():
                # All real work done; don't let daemons spin forever.
                return None
            t, _seq, kind, payload, value = heapq.heappop(queue)
            if until is not None and t > until:
                # Leave the event for a later run() call.
                self._push(t, kind, payload, value)
                self.now = until
                return None
            if t > self.now:
                self.now = t
            if kind == _CALL:
                try:
                    payload()
                except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                    self._error = exc
                    return None
                continue
            if payload.alive:
                step = payload._step
                if step is not None:
                    try:
                        if not step(value):
                            continue
                    except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                        self._error = exc
                        return None
                payload._wake_value = value
                return payload
        return None

    def _switch(self, me: Optional[Process]) -> None:
        """Give up control on behalf of ``me`` (None: the ``run`` caller):
        run the loop, pass the baton on, and unless ``me`` has exited,
        return once it holds the baton again."""
        nxt = None if self._aborting else self._next()
        if nxt is me:
            return
        self.n_handoffs += 1
        (nxt or self)._baton.release()
        if me is None or me.alive:
            (me or self)._baton.acquire()

    def _only_daemon_events(self) -> bool:
        """True if every queued event resumes a daemon process."""
        return all(kind == _RESUME and payload.daemon
                   for _t, _seq, kind, payload, _value in self._queue)

    def _drain(self) -> None:
        """Kill all still-alive processes so their threads exit cleanly."""
        self._aborting = True
        for proc in self._procs:
            while proc.alive:
                proc._baton.release()
                self._baton.acquire()
        self._queue.clear()

    # ------------------------------------------------------------------
    # Kernel internals (called from process threads)
    # ------------------------------------------------------------------

    def _on_process_exit(self, proc: Process) -> None:
        self._live -= not proc.daemon
        if proc.error is not None and not self._aborting:
            self._crashed = proc

    def _hit_fault_point(self, name: str, proc: Process) -> None:
        """Record a fault-point hit; crash ``proc`` if the plan says so.

        Called (via :meth:`Process.fault_point`) from the hitting
        process's own thread, so a matching plan can simply raise
        :class:`~repro.simt.process.Crashed` to unwind it in place.
        """
        plan = self.fault_plan
        if plan is None:
            return
        key = (proc.name, name)
        nth = self._fault_hits.get(key, 0) + 1
        self._fault_hits[key] = nth
        self.fault_log.append((proc.name, name, nth))
        if plan.matches(proc.name, name, nth):
            proc.crash_point = f"{name}#{nth}"
            # Flag before raising: ``finally`` blocks unwinding past the
            # crash must behave as dead code — the database and the park
            # primitive both refuse a crashed process, so graceful-exit
            # cleanup (lease releases, reaps) cannot run post-mortem.
            proc.crashed = True
            raise Crashed(
                f"injected fault at {name!r} (hit {nth}) in {proc.name!r}"
            )

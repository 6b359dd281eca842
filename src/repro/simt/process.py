"""Simulated processes backed by OS threads.

The kernel's central invariant: **at most one thread runs at a time** — one
process, or the thread inside :meth:`Simulator.run`.  Each process owns a
baton, a :class:`threading.Lock` held locked while it lacks control.  A
process that parks (or exits) runs the event loop itself, on its own thread,
then releases the baton of the process resumed next and blocks acquiring its
own: one lock hand-off per switch, none when its own resume is next.

A process may also wait through a *continuation* (:meth:`Process.park_with`):
the resumes popped for it then run a ``step`` function inline on the loop
thread instead of switching to it, until the step reports the wait is over.
A step behaves like a ``call`` callback: it runs on whichever thread holds
control, it may schedule events and take or release resources, and it must
not park.

Because of this invariant, simulation code can freely mutate shared Python
objects (mailboxes, database tables, file-system state) without locks, and
runs are fully deterministic: ties in the event queue are broken by insertion
sequence number.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simt.simulator import Simulator

__all__ = ["Process", "Killed", "Crashed"]


class Killed(BaseException):
    """Raised inside a process thread to unwind it when the simulation aborts.

    Derives from :class:`BaseException` so that application-level
    ``except Exception`` blocks cannot swallow it.
    """


class Crashed(BaseException):
    """Raised inside a process at a matched fault point to model a crash.

    Like :class:`Killed` this derives from :class:`BaseException`, so
    application-level ``except Exception`` recovery cannot intercept the
    injected death — the process unwinds exactly as if its host failed
    mid-operation, leaving whatever shared state (leases, pins,
    half-published epochs) it had in flight.  Unlike an ordinary raised
    exception it does *not* mark the simulation as errored: peers keep
    running until they stall on the dead process, at which point the
    simulator raises an attributed
    :class:`~repro.errors.SimParticipantLost`.
    """


class Process:
    """A simulated process: a function run on a dedicated thread under the
    simulator's one-runner-at-a-time discipline.

    Application code receives the :class:`Process` as the first argument of
    its function and uses it to interact with virtual time:

    * :meth:`hold` — advance this process's virtual time,
    * :meth:`park` — block until another actor schedules a resume,
    * :meth:`park_with` — block while a continuation serves the resumes,
    * :attr:`now` — the current virtual time.

    Attributes
    ----------
    name:
        Human-readable name (appears in traces and deadlock reports).
    daemon:
        Daemon processes do not keep the simulation alive; they are killed
        when all non-daemon processes have finished.
    result:
        Return value of the process function once it has finished.
    error:
        The exception the process function raised, if any.
    """

    def __init__(
        self,
        sim: "Simulator",
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        name: str,
        daemon: bool,
    ) -> None:
        self.sim = sim
        self.name = name
        self.daemon = daemon
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.crashed = False
        self.crash_point: Optional[str] = None
        self.wait_reason: str = "start"
        self._wake_value: Any = None
        self._step: Optional[Callable[[Any], bool]] = None
        self._baton = threading.Lock()
        self._baton.acquire()
        self._thread = threading.Thread(
            target=self._bootstrap,
            args=(fn, args, kwargs),
            name=f"simt:{name}",
            daemon=True,
        )

    # ------------------------------------------------------------------
    # Public API (called from inside the process function)
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.sim.now

    def hold(self, dt: float) -> None:
        """Advance this process's virtual time by ``dt`` seconds.

        Other runnable processes execute during the hold — this is how
        computation, transfer, and service times are charged.
        """
        if dt < 0:
            raise ValueError(f"cannot hold for negative time: {dt!r}")
        self.sim.schedule_resume(self, delay=dt)
        self._park(reason=f"hold({dt:.3g})")

    def park(self, reason: str = "wait") -> Any:
        """Block until some other actor resumes this process.

        Returns the value passed to :meth:`Simulator.schedule_resume`.
        Low-level primitive used by Signals, Resources, Channels, and the MPI
        matching engine.
        """
        return self._park(reason=reason)

    def park_with(self, step: Callable[[Any], bool], reason: str) -> Any:
        """Park until ``step`` reports the wait is over.

        Every resume popped for this process while parked calls
        ``step(value)`` inline on the loop thread, with the clock at that
        resume's time, instead of switching to this process.  A step that
        returns False keeps the process parked (it has scheduled whatever
        comes next); one that returns True resumes the process at that same
        pop, and :meth:`park_with` returns the pop's wake value.  A step
        must not park; an exception it raises ends the run and is re-raised
        from :meth:`Simulator.run`, as for a ``call`` callback.

        One thread switch then serves a wait of many timed steps — e.g. a
        file-system request walking several controller queues.
        """
        self._step = step
        try:
            return self._park(reason)
        finally:
            self._step = None

    def fault_point(self, name: str) -> None:
        """Announce a registered fault point (e.g. ``"flip:published"``).

        Protocol code calls this at its crash-interesting milestones.  A
        no-op unless the simulator carries a
        :class:`~repro.simt.simulator.FaultPlan`; a matching plan raises
        :class:`Crashed` here, killing this process mid-protocol.
        """
        self.sim._hit_fault_point(name, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state} at t={self.sim.now:.6g}>"

    # ------------------------------------------------------------------
    # Kernel internals
    # ------------------------------------------------------------------

    def _bootstrap(self, fn: Callable[..., Any], args: tuple, kwargs: dict) -> None:
        """Thread body: wait for the first resume, run ``fn``, sign off."""
        try:
            self._baton.acquire()
            if self.sim._aborting:
                raise Killed()
            self.result = fn(self, *args, **kwargs)
        except Killed:
            pass
        except Crashed:
            # An injected fault, not a program error: record the death
            # without flagging the simulation as crashed, so peers run on
            # until they stall on this process (attributed separately).
            self.crashed = True
        except BaseException as exc:  # noqa: BLE001 - reported via sim
            self.error = exc
        finally:
            self.alive = False
            self.sim._on_process_exit(self)
            # Hand control on for the last time; this thread then dies.
            self.sim._switch(self)

    def _park(self, reason: str) -> Any:
        """Give up control and block until resumed."""
        if self._thread is not threading.current_thread():
            raise RuntimeError(
                f"process {self.name!r} parked from foreign thread "
                f"{threading.current_thread().name!r}"
            )
        if self.sim._aborting:
            raise Killed()
        if self.crashed:
            # Crash-unwinding code (``finally`` cleanup) must not block,
            # hold, or rendezvous: the dead process is gone.
            raise Crashed(f"crashed process {self.name!r} cannot park")
        self.wait_reason = reason
        self.sim._switch(self)
        if self.sim._aborting:
            raise Killed()
        value, self._wake_value = self._wake_value, None
        return value

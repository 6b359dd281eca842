"""Synchronization and queueing primitives for simulated processes.

All primitives follow the same pattern: state mutation is safe without locks
because the kernel guarantees one runner at a time; blocking is implemented
with :meth:`Process.park` and wake-ups with :meth:`Simulator.schedule_resume`.

* :class:`Signal` — broadcast condition: ``fire()`` wakes every waiter.
* :class:`SimEvent` — one-shot future carrying a value; waiting after the
  event is set returns immediately.
* :class:`Resource` — FIFO counting semaphore; models controllers, DB
  connections, or any capacity-limited server.
* :class:`Channel` — FIFO item store with optionally *delayed* delivery,
  the building block for message transports.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Iterator, List, Optional

from repro.errors import SimError
from repro.simt.process import Process
from repro.simt.simulator import Simulator

__all__ = ["Signal", "SimEvent", "Resource", "Channel"]


class Signal:
    """Broadcast condition variable.

    ``wait`` blocks the calling process until the next ``fire``; every
    process waiting at fire time is woken (at the current virtual time).
    """

    def __init__(self, sim: Simulator, name: str = "signal") -> None:
        self.sim = sim
        self.name = name
        self._waiters: List[Process] = []

    def wait(self, proc: Process) -> Any:
        """Block ``proc`` until the next :meth:`fire`; returns the fire value."""
        self._waiters.append(proc)
        return proc.park(reason=f"signal:{self.name}")

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            self.sim.schedule_resume(w, value=value)
        return len(waiters)

    @property
    def n_waiting(self) -> int:
        """Number of processes currently blocked on this signal."""
        return len(self._waiters)


class SimEvent:
    """One-shot future: set once, read many.

    Used for completion notification — nonblocking request completion,
    asynchronous history-file writes, etc.
    """

    def __init__(self, sim: Simulator, name: str = "event") -> None:
        self.sim = sim
        self.name = name
        self.value: Any = None
        self._set = False
        self._waiters: List[Process] = []

    @property
    def is_set(self) -> bool:
        """True once :meth:`set` has been called."""
        return self._set

    def set(self, value: Any = None) -> None:
        """Complete the event, waking all waiters.  Setting twice is an error."""
        if self._set:
            raise SimError(f"SimEvent {self.name!r} set twice")
        self._set = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            self.sim.schedule_resume(w, value=value)

    def wait(self, proc: Process) -> Any:
        """Block until set (returns immediately if already set)."""
        if self._set:
            return self.value
        self._waiters.append(proc)
        return proc.park(reason=f"event:{self.name}")


class Resource:
    """FIFO counting semaphore with direct hand-off.

    ``release`` passes the grant straight to the longest-waiting process (the
    count is *not* incremented first), so service order is strictly FIFO —
    important for reproducing queueing at I/O controllers.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._available = capacity
        self._waitq: Deque[Process] = deque()

    @property
    def available(self) -> int:
        """Grants currently free."""
        return self._available

    @property
    def n_waiting(self) -> int:
        """Processes queued for a grant."""
        return len(self._waitq)

    def claim(self, proc: Process) -> bool:
        """Take a free grant (True), or queue ``proc`` FIFO (False).

        Does not park: a queued ``proc`` holds the grant once a
        :meth:`release` resumes it.  Continuation steps use this directly.
        """
        if self._available > 0:
            self._available -= 1
            return True
        self._waitq.append(proc)
        return False

    def acquire(self, proc: Process) -> None:
        """Take one grant, blocking FIFO if none is free."""
        if not self.claim(proc):
            proc.park(reason=f"resource:{self.name}")

    def release(self) -> None:
        """Return one grant; hands it directly to the next waiter if any."""
        if self._waitq:
            nxt = self._waitq.popleft()
            self.sim.schedule_resume(nxt)
        else:
            if self._available >= self.capacity:
                raise SimError(f"resource {self.name!r} released above capacity")
            self._available += 1

    @contextmanager
    def request(self, proc: Process) -> Iterator[None]:
        """``with res.request(proc): ...`` — acquire/release scope."""
        self.acquire(proc)
        try:
            yield
        finally:
            self.release()


class Channel:
    """FIFO item queue with timed delivery.

    ``put`` may specify a delivery ``delay``: the item becomes visible to
    getters only after that much virtual time, which models a message in
    flight.  Getters block (FIFO) while the channel is empty.
    """

    def __init__(self, sim: Simulator, name: str = "channel") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Process] = deque()

    def put(self, item: Any, delay: float = 0.0) -> None:
        """Deposit ``item``, visible ``delay`` seconds from now."""
        if delay <= 0.0:
            self._deposit(item)
        else:
            self.sim.call_after(delay, lambda: self._deposit(item))

    def _deposit(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.popleft()
            self.sim.schedule_resume(getter, value=(True, item))
        else:
            self._items.append(item)

    def get(self, proc: Process) -> Any:
        """Pop the oldest visible item, blocking if none."""
        if self._items:
            return self._items.popleft()
        self._getters.append(proc)
        ok, item = proc.park(reason=f"channel:{self.name}")
        if not ok:  # pragma: no cover - defensive; only used by future cancel
            raise SimError(f"channel {self.name!r} get cancelled")
        return item

    def try_get(self) -> tuple[bool, Any]:
        """Nonblocking pop: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def __len__(self) -> int:
        """Number of items currently visible."""
        return len(self._items)

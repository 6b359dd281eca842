"""Unit tests for the discrete-event kernel: clock, processes, determinism,
the one-runner invariant and process-thread lifetimes."""

import hashlib
import sys
import threading

import pytest

from repro.errors import (
    SimDeadlockError,
    SimError,
    SimParticipantLost,
    SimProcessCrashed,
)
from repro.simt import Channel, FaultPlan, Resource, Signal, SimEvent, Simulator


def test_single_process_runs_and_returns_result():
    def fn(proc, x):
        proc.hold(2.5)
        return x + 1

    sim = Simulator()
    p = sim.spawn(fn, 41)
    end = sim.run()
    assert p.result == 42
    assert p.error is None
    assert end == pytest.approx(2.5)
    assert sim.now == pytest.approx(2.5)


def test_clock_starts_at_zero_and_only_advances():
    times = []

    def fn(proc):
        times.append(proc.now)
        proc.hold(1.0)
        times.append(proc.now)
        proc.hold(0.0)
        times.append(proc.now)

    sim = Simulator()
    sim.spawn(fn)
    sim.run()
    assert times == [0.0, 1.0, 1.0]


def test_two_processes_interleave_by_virtual_time():
    order = []

    def fn(proc, label, dt):
        for i in range(3):
            proc.hold(dt)
            order.append((label, i, proc.now))

    sim = Simulator()
    sim.spawn(fn, "fast", 1.0)
    sim.spawn(fn, "slow", 2.5)
    sim.run()
    assert order == [
        ("fast", 0, 1.0),
        ("fast", 1, 2.0),
        ("slow", 0, 2.5),
        ("fast", 2, 3.0),
        ("slow", 1, 5.0),
        ("slow", 2, 7.5),
    ]
    assert sim.now == pytest.approx(7.5)


def test_simultaneous_events_fire_in_spawn_order():
    order = []

    def fn(proc, label):
        proc.hold(1.0)
        order.append(label)

    sim = Simulator()
    for i in range(8):
        sim.spawn(fn, i)
    sim.run()
    assert order == list(range(8))


def test_spawn_delay_offsets_start_time():
    seen = {}

    def fn(proc, key):
        seen[key] = proc.now

    sim = Simulator()
    sim.spawn(fn, "a", delay=0.0)
    sim.spawn(fn, "b", delay=3.0)
    sim.run()
    assert seen == {"a": 0.0, "b": 3.0}


def test_negative_hold_rejected():
    def fn(proc):
        proc.hold(-1.0)

    sim = Simulator()
    sim.spawn(fn)
    with pytest.raises(SimProcessCrashed):
        sim.run()


def test_process_exception_propagates_with_cause():
    def fn(proc):
        proc.hold(1.0)
        raise ValueError("boom")

    sim = Simulator()
    sim.spawn(fn, name="bad")
    with pytest.raises(SimProcessCrashed) as ei:
        sim.run()
    assert "bad" in str(ei.value)
    assert isinstance(ei.value.__cause__, ValueError)


def test_crash_kills_other_processes_cleanly():
    reached = []

    def victim(proc):
        proc.hold(100.0)
        reached.append("victim-late")  # must never run

    def bomber(proc):
        proc.hold(1.0)
        raise RuntimeError("die")

    sim = Simulator()
    v = sim.spawn(victim)
    sim.spawn(bomber)
    with pytest.raises(SimProcessCrashed):
        sim.run()
    assert reached == []
    assert not v.alive


def test_deadlock_detected_when_process_parks_forever():
    def fn(proc):
        proc.park(reason="never-signalled")

    sim = Simulator()
    sim.spawn(fn, name="stuck")
    with pytest.raises(SimDeadlockError) as ei:
        sim.run()
    assert "stuck" in str(ei.value)
    assert "never-signalled" in str(ei.value)


def test_daemon_does_not_keep_simulation_alive():
    ticks = []

    def daemon(proc):
        while True:
            proc.hold(1.0)
            ticks.append(proc.now)

    def worker(proc):
        proc.hold(3.5)

    sim = Simulator()
    sim.spawn(daemon, daemon=True)
    sim.spawn(worker)
    end = sim.run()
    assert end == pytest.approx(3.5)
    # Daemon ticked up to (and possibly at) the end time, then was killed.
    assert all(t <= 3.5 for t in ticks)


def test_run_until_pauses_and_resumes():
    def fn(proc):
        proc.hold(10.0)
        return "done"

    sim = Simulator()
    p = sim.spawn(fn)
    t = sim.run(until=4.0)
    assert t == pytest.approx(4.0)
    assert p.alive
    t = sim.run()
    assert t == pytest.approx(10.0)
    assert p.result == "done"


def test_run_after_finish_is_an_error():
    sim = Simulator()
    sim.spawn(lambda proc: None)
    sim.run()
    with pytest.raises(SimError):
        sim.run()
    with pytest.raises(SimError):
        sim.spawn(lambda proc: None)


def test_call_at_runs_callbacks_in_time_order():
    calls = []
    sim = Simulator()
    sim.call_at(2.0, lambda: calls.append(("b", sim.now)))
    sim.call_at(1.0, lambda: calls.append(("a", sim.now)))

    def fn(proc):
        proc.hold(3.0)

    sim.spawn(fn)
    sim.run()
    assert calls == [("a", 1.0), ("b", 2.0)]


def test_call_at_into_the_past_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_at(-1.0, lambda: None)


def test_schedule_resume_passes_value():
    def waiter(proc):
        return proc.park(reason="value")

    sim = Simulator()
    p = sim.spawn(waiter)
    sim.call_at(5.0, lambda: sim.schedule_resume(p, value="payload"))
    sim.run()
    assert p.result == "payload"
    assert sim.now == pytest.approx(5.0)


def test_many_processes_determinism():
    """Two identical runs produce identical event orderings."""

    def fn(proc, idx, log):
        for step in range(5):
            proc.hold(((idx * 7 + step * 3) % 11) / 10.0 + 0.01)
            log.append((proc.now, idx, step))

    def one_run():
        log = []
        sim = Simulator()
        for i in range(16):
            sim.spawn(fn, i, log)
        sim.run()
        return log, sim.now

    log1, t1 = one_run()
    log2, t2 = one_run()
    assert log1 == log2
    assert t1 == t2


# ----------------------------------------------------------------------
# One-runner invariant and thread lifetimes
# ----------------------------------------------------------------------

STRESS_PROCS = 64
STRESS_STEPS = 6
# Recorded with the thread-handshake kernel this one replaced: the
# hand-off mechanism may change, the event order may not.
STRESS_GOLDEN = {
    "updates": 930,
    "log_len": 460,
    "now": 0.44999999999999996,
    "events": 675,
    "log_sha256": "85b5f7240b8a60377581016fc8259c77c6ab334e4d16bbe97ce0c253cdf94b97",
}


def _assert_threads_exited(sim):
    for proc in sim._procs:
        proc._thread.join(timeout=5)
        assert not proc._thread.is_alive(), proc.name


def _stress_run():
    """64 processes (more than there are cores) doing unguarded
    read-modify-writes of one counter amid hold(0), Signal, Resource,
    Channel and call_at traffic.  Returns the counter, the number of
    updates attempted, the ``(now, name, step)`` log and the simulator."""
    sim = Simulator()
    counter = [0]
    bumps = []
    log = []
    done = [False]
    signal = Signal(sim, "tick")
    res = Resource(sim, 3, "ctl")
    chan = Channel(sim, "pipe")

    def bump():
        v = counter[0]
        acc = 0
        for k in range(1000):  # bytecode between the read and the write
            acc += k * k
        counter[0] = v + 1 + acc - acc
        bumps.append(1)  # list.append is atomic: the reference count

    def callback():
        bump()
        log.append((sim.now, "cb", counter[0]))

    def firer(proc):
        while signal.n_waiting or not done[0]:
            proc.hold(0.05)
            bump()
            signal.fire()

    def worker(proc, idx):
        for step in range(STRESS_STEPS):
            bump()
            kind = (idx + step) % 5
            if kind == 0:
                proc.hold(0.0)
            elif kind == 1:
                signal.wait(proc)
            elif kind == 2:
                with res.request(proc):
                    bump()
                    proc.hold(0.01 * (idx % 4))
            elif kind == 3:
                chan.put(idx, delay=0.003 * (idx % 7))
                chan.get(proc)
            else:
                sim.call_at(proc.now + 0.002 * (idx % 3), callback)
                proc.hold(0.004)
            bump()
            log.append((proc.now, proc.name, step))

    def supervisor(proc, workers):
        for w in workers:
            while w.alive:
                proc.hold(0.1)
        done[0] = True

    workers = [sim.spawn(worker, i, name=f"w{i}") for i in range(STRESS_PROCS)]
    sim.spawn(firer, name="firer")
    sim.spawn(supervisor, workers, name="sup")
    sim.run()
    return counter[0], len(bumps), log, sim


def test_one_runner_stress_loses_no_updates_and_matches_golden_order():
    out = []
    runner = threading.Thread(target=lambda: out.append(_stress_run()),
                              daemon=True)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # preempt threads as often as possible
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not runner.is_alive(), "kernel hung"
    count, attempted, log, sim = out[0]
    assert count == attempted == STRESS_GOLDEN["updates"]
    assert len(log) == STRESS_GOLDEN["log_len"]
    assert sim.now == STRESS_GOLDEN["now"]
    assert sim._seq == STRESS_GOLDEN["events"]
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert digest == STRESS_GOLDEN["log_sha256"]
    _assert_threads_exited(sim)


def _ticker(proc):
    while True:
        proc.hold(1.0)


def test_threads_exit_after_normal_completion():
    sim = Simulator()
    sim.spawn(lambda proc: proc.hold(2.0))
    sim.spawn(_ticker, daemon=True)
    sim.spawn(lambda proc: proc.park("never"), daemon=True)
    sim.run()
    _assert_threads_exited(sim)


def test_threads_exit_after_process_exception():
    def bad(proc):
        proc.hold(1.0)
        raise ValueError("boom")

    sim = Simulator()
    sim.spawn(bad)
    sim.spawn(lambda proc: proc.hold(5.0))
    sim.spawn(lambda proc: proc.hold(3.0), delay=2.0)  # never started
    with pytest.raises(SimProcessCrashed):
        sim.run()
    _assert_threads_exited(sim)


def test_threads_exit_after_deadlock():
    sim = Simulator()
    sim.spawn(lambda proc: proc.park("stuck"))
    sim.spawn(lambda proc: proc.park("idle"), daemon=True)
    with pytest.raises(SimDeadlockError):
        sim.run()
    _assert_threads_exited(sim)


def test_threads_exit_after_run_until_then_run():
    sim = Simulator()
    sim.spawn(lambda proc: proc.hold(10.0))
    sim.spawn(_ticker, daemon=True)
    assert sim.run(until=4.0) == 4.0
    assert sim.run() == 10.0
    _assert_threads_exited(sim)


def test_threads_exit_after_fault_crash_loses_participant():
    def victim(proc, ev):
        proc.fault_point("boom")
        ev.set()

    sim = Simulator()
    sim.fault_plan = FaultPlan("boom", victim="v")
    ev = SimEvent(sim)
    sim.spawn(victim, ev, name="v")
    sim.spawn(lambda proc: ev.wait(proc), name="w")
    with pytest.raises(SimParticipantLost):
        sim.run()
    _assert_threads_exited(sim)


def test_raising_callback_surfaces_with_its_own_type():
    def fail():
        raise KeyError("from callback")

    sim = Simulator()
    sim.spawn(lambda proc: proc.hold(5.0))
    # Popped on the process's thread: the process parked in hold(0.5).
    sim.spawn(lambda proc: (proc.hold(0.5), sim.call_after(0.5, fail)))
    with pytest.raises(KeyError, match="from callback"):
        sim.run()
    _assert_threads_exited(sim)

    sim = Simulator()
    sim.call_at(1.0, fail)  # popped on the thread that called run()
    sim.spawn(lambda proc: proc.hold(2.0))
    with pytest.raises(KeyError):
        sim.run()
    _assert_threads_exited(sim)


# ---------------------------------------------------------------------------
# Continuations (Process.park_with)
# ---------------------------------------------------------------------------

def _stepper(sim, proc, delays, seen):
    """A step that plays ``delays`` as consecutive holds, logging each call."""
    left = list(delays)

    def step(value):
        seen.append((sim.now, threading.current_thread()))
        if not left:
            return True
        sim.schedule_resume(proc, delay=left.pop(0), value=len(left))
        return False

    return step


def test_park_with_steps_run_inline_without_handoffs():
    seen = []

    def walker(proc):
        proc.sim.schedule_resume(proc, delay=1.0)
        proc.park_with(_stepper(proc.sim, proc, [1.0] * 4, seen), "walk")

    def other(proc):
        for _ in range(3):
            proc.hold(1.5)

    def handoffs(main):
        sim = Simulator()
        p = sim.spawn(main, name="w")
        sim.spawn(other, name="o")
        sim.run()
        return sim, p

    sim, p = handoffs(walker)
    assert [t for t, _ in seen] == [1.0, 2.0, 3.0, 4.0, 5.0]
    # Every step ran on another thread's loop: none switched to the walker.
    assert all(thr is not p._thread for _, thr in seen)
    # Five holds switch to the walker five times; the walk costs exactly
    # what one hold of the same total does.
    by_threads, _ = handoffs(
        lambda proc: [proc.hold(1.0) for _ in range(5)])
    one_hold, _ = handoffs(lambda proc: proc.hold(5.0))
    assert sim.n_handoffs == one_hold.n_handoffs < by_threads.n_handoffs


def test_park_with_done_step_resumes_like_the_equivalent_holds():
    def by_steps(proc):
        proc.sim.schedule_resume(proc, delay=1.0)
        got = proc.park_with(_stepper(proc.sim, proc, [2.5, 0.0], []), "walk")
        return proc.now, got

    def by_holds(proc):
        for dt in (1.0, 2.5, 0.0):
            proc.hold(dt)
        return proc.now, 0

    runs = []
    for body in (by_steps, by_holds):
        sim = Simulator()
        p = sim.spawn(body)
        sim.spawn(lambda proc: [proc.hold(0.75) for _ in range(6)])
        sim.run()
        runs.append((p.result, sim._seq, sim.now))
    assert runs[0] == runs[1]
    assert runs[0][0] == (3.5, 0)  # the last pop's time and wake value


def test_raising_step_surfaces_with_its_own_type():
    class StepError(Exception):
        pass

    def step(value):
        raise StepError("from step")

    def walker(proc):
        proc.sim.schedule_resume(proc, delay=0.5)
        proc.park_with(step, "walk")

    sim = Simulator()
    sim.spawn(lambda proc: proc.hold(5.0))
    w = sim.spawn(walker)
    with pytest.raises(StepError, match="from step"):
        sim.run()
    assert not w.alive and w._step is None
    _assert_threads_exited(sim)


def test_daemon_parked_in_a_walk_is_killed_like_a_holding_daemon():
    def endless_walk(proc):
        def step(value):
            proc.sim.schedule_resume(proc, delay=0.7)
            return False

        step(None)
        proc.park_with(step, "walk")

    def endless_holds(proc):
        while True:
            proc.hold(0.7)

    ends = []
    for daemon in (endless_walk, endless_holds):
        sim = Simulator()
        sim.spawn(lambda proc: proc.hold(5.0))
        d = sim.spawn(daemon, daemon=True)
        end = sim.run()
        assert not d.alive and d.error is None
        _assert_threads_exited(sim)
        ends.append((end, sim._seq))
    assert ends[0] == ends[1]
    assert ends[0][0] == 5.0

"""Unit tests for the deterministic event loop (netsim.eventloop).

The loop's three documented invariants — global (due, sequence)
ordering, every yield through the heap, and a clock that never rewinds
— are what make the interleaved resumption probes a pure function of
their schedule, so they each get a direct test here rather than relying
only on the end-to-end record-identity suite.
"""

import doctest

import pytest

import repro.netsim.eventloop
from repro.netsim.eventloop import EventLoop, Task, Wait


class Clock:
    def __init__(self, start=0.0):
        self.t = start
        self.advances = []

    def now(self):
        return self.t

    def advance(self, when):
        self.advances.append(when)
        self.t = max(self.t, when)


def make_loop(start=0.0):
    clock = Clock(start)
    return clock, EventLoop(clock.now, clock.advance)


# -- Wait ---------------------------------------------------------------

def test_wait_relative_and_absolute():
    assert Wait(2.5).due(now=10.0) == 12.5
    assert Wait().due(now=10.0) == 10.0
    assert Wait.until(99.0).due(now=10.0) == 99.0
    # until() wins even when a relative component is present.
    assert Wait(5.0, at=42.0).due(now=10.0) == 42.0


def test_wait_is_immutable():
    with pytest.raises(AttributeError):
        Wait(1.0).seconds = 2.0  # type: ignore[misc]


# -- ordering -----------------------------------------------------------

def test_tasks_resume_in_due_time_order_not_spawn_order():
    clock, loop = make_loop()
    log = []

    def task(name, delay):
        yield Wait(delay)
        log.append((name, clock.now()))

    loop.spawn(task("slow", 10.0))
    loop.spawn(task("fast", 2.0))
    loop.run()
    assert log == [("fast", 2.0), ("slow", 10.0)]


def test_equal_due_times_resume_in_issue_order():
    """Invariant 1+2: ties break by the global sequence counter, which

    increments once per spawn/reschedule — so equal-time waits resume in
    exactly the order they were issued, regardless of how many tasks are
    in flight.
    """
    clock, loop = make_loop()
    log = []

    def task(name):
        log.append(("start", name))
        yield Wait(0.0)
        log.append(("mid", name))
        yield Wait(0.0)
        log.append(("end", name))

    for name in ("a", "b", "c"):
        loop.spawn(task(name))
    loop.run()
    assert log == [
        ("start", "a"), ("start", "b"), ("start", "c"),
        ("mid", "a"), ("mid", "b"), ("mid", "c"),
        ("end", "a"), ("end", "b"), ("end", "c"),
    ]


def test_zero_wait_parks_rather_than_running_inline():
    """Invariant 2: a Wait(0.0) yields control to other due tasks."""
    clock, loop = make_loop()
    log = []

    def chatty():
        log.append("chatty-1")
        yield Wait(0.0)
        log.append("chatty-2")

    def other():
        log.append("other")
        return
        yield  # pragma: no cover - generator marker

    loop.spawn(chatty())
    loop.spawn(other())
    loop.run()
    # "other" runs between the two chatty steps: the zero wait went
    # through the heap behind other's already-queued entry.
    assert log == ["chatty-1", "other", "chatty-2"]


def test_past_due_wait_never_rewinds_clock():
    """Invariant 3: resuming a wait already in the past clamps to now."""
    clock, loop = make_loop()
    seen = []

    def late():
        yield Wait.until(5.0)
        seen.append(clock.now())

    def early():
        yield Wait.until(50.0)
        seen.append(clock.now())

    loop.spawn(early())
    loop.spawn(late())
    loop.run()
    assert seen == [5.0, 50.0]
    assert clock.advances == sorted(clock.advances)


def test_advance_clamps_to_now_for_stale_entries():
    clock, loop = make_loop(start=100.0)
    ran = []

    def task():
        ran.append(clock.now())
        return
        yield  # pragma: no cover - generator marker

    # Admitted due at t=10 on a clock already at t=100.
    loop.spawn(task(), at=10.0)
    loop.run()
    assert ran == [100.0]
    assert clock.t == 100.0


# -- spawn/run mechanics ------------------------------------------------

def test_spawn_at_future_time():
    clock, loop = make_loop()
    ran = []

    def task():
        ran.append(clock.now())
        return
        yield  # pragma: no cover - generator marker

    loop.spawn(task(), at=7.5)
    loop.run()
    assert ran == [7.5]


def test_task_result_and_done_flag():
    clock, loop = make_loop()

    def task(value):
        yield Wait(1.0)
        return value * 2

    handle = loop.spawn(task(21))
    assert isinstance(handle, Task)
    assert not handle.done
    loop.run()
    assert handle.done
    assert handle.result == 42


def test_pending_counts_parked_tasks():
    clock, loop = make_loop()

    def task():
        yield Wait(1.0)

    loop.spawn(task())
    loop.spawn(task())
    assert loop.pending == 2
    loop.run()
    assert loop.pending == 0


def test_spawning_from_inside_a_running_task():
    """The sweep admits new grabs while earlier ones are in flight."""
    clock, loop = make_loop()
    log = []

    def child(name):
        yield Wait(1.0)
        log.append((name, clock.now()))

    def parent():
        loop.spawn(child("spawned-at-0"))
        yield Wait(5.0)
        loop.spawn(child("spawned-at-5"))

    loop.spawn(parent())
    loop.run()
    assert log == [("spawned-at-0", 1.0), ("spawned-at-5", 6.0)]


def test_task_exception_propagates():
    clock, loop = make_loop()

    def boom():
        yield Wait(1.0)
        raise RuntimeError("deterministic crash")

    loop.spawn(boom())
    with pytest.raises(RuntimeError, match="deterministic crash"):
        loop.run()


def test_interleaving_independent_of_admission_batch():
    """Same schedule, different admission grouping, same resume order.

    Whether tasks are spawned all at once or in chunks, the (due,
    sequence) order — and therefore the log — is identical as long as
    the waits themselves are: the loop's order depends on the schedule
    alone, never on how many tasks are in flight.
    """
    def run_with_batch(batch):
        clock, loop = make_loop()
        log = []
        # Non-decreasing due times, like the probes' stagger steps.
        schedule = [(i * 0.5, i) for i in range(12)]

        def task(due, i):
            yield Wait.until(due)
            log.append((i, clock.now()))

        for start in range(0, len(schedule), batch):
            for due, i in schedule[start:start + batch]:
                loop.spawn(task(due, i))
            loop.run()
        return log

    assert run_with_batch(1) == run_with_batch(4) == run_with_batch(12)


def test_module_doctests():
    failures, _ = doctest.testmod(repro.netsim.eventloop, verbose=False)
    assert failures == 0

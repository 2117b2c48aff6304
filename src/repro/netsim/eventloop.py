"""Deterministic event loop over the virtual clock.

This is the scheduler behind the resumption-lifetime probes: it
interleaves thousands of in-flight tasks (one 24-hour probe per domain)
in ONE process while keeping execution order a pure function of the
schedule — never of how many tasks happen to be in flight.

Tasks are plain generators.  A task runs until it ``yield``\\ s a
:class:`Wait`, which parks it on the loop's heap until the requested
virtual time; the loop advances the simulation clock between resumes
via the ``advance`` callable (normally ``Ecosystem.advance_to``), so
time-driven ecosystem events — STEK rotations, churn — fire exactly as
they would under the blocking scanner.

Determinism invariants (load-bearing; see docs/SCALING.md):

1. Every resume is ordered by the pair ``(due_time, sequence)`` where
   ``sequence`` is a single global counter incremented once per spawn
   or reschedule.  There is no other ordering input: wall-clock time,
   ready-queue fast paths, and in-flight counts play no part.
2. *All* yields go through the heap — even a ``Wait(0.0)`` that is
   already due is re-inserted at ``(now, fresh sequence)`` rather than
   resumed inline.  Equal-time tasks therefore interleave in exactly
   the order their waits were issued, independent of batch size.
3. The loop never rewinds: a wait due in the past resumes at the
   current virtual time (``max(due, now)``), matching the sweep's
   ``advance_to(max(tick, now))`` rule.

Example — two handshake-shaped tasks interleave by virtual due time,
not by spawn order:

>>> clock = _DemoClock()
>>> loop = EventLoop(clock.now, clock.advance)
>>> log = []
>>> def task(name, delay):
...     log.append((clock.now(), name, "sent"))
...     yield Wait(delay)          # flight on the wire
...     log.append((clock.now(), name, "done"))
...     return name
>>> slow = loop.spawn(task("slow", 10.0))
>>> fast = loop.spawn(task("fast", 2.5))
>>> loop.run()
>>> for entry in log:
...     print(entry)
(0.0, 'slow', 'sent')
(0.0, 'fast', 'sent')
(2.5, 'fast', 'done')
(10.0, 'slow', 'done')
>>> (slow.result, fast.result)
('slow', 'fast')

Tasks can also be admitted at a future time (the resumption probes
admit one domain per stagger step):

>>> loop = EventLoop(clock.now, clock.advance)
>>> def ping(at):
...     log.append(("ping", clock.now()))
...     return None
...     yield  # pragma: no cover - marks this function as a generator
>>> _ = loop.spawn(ping(0), at=clock.now() + 5.0)
>>> loop.run()
>>> log[-1] == ("ping", 15.0)
True
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional


@dataclass(frozen=True)
class Wait:
    """A parked continuation's wake-up request.

    ``Wait(seconds)`` resumes the task after ``seconds`` of virtual
    time; ``Wait.until(t)`` resumes at absolute virtual time ``t``.
    ``Wait(0.0)`` — the zero-latency round trip of the simulated
    network — still goes through the heap, preserving invariant 2.

    >>> Wait(1.5).due(now=10.0)
    11.5
    >>> Wait.until(99.0).due(now=10.0)
    99.0
    """

    seconds: float = 0.0
    at: Optional[float] = None

    @classmethod
    def until(cls, when: float) -> "Wait":
        """Wait until an absolute virtual time."""
        return cls(0.0, at=when)

    def due(self, now: float) -> float:
        """The absolute virtual time this wait asks to resume at."""
        return self.at if self.at is not None else now + self.seconds


class Task:
    """Handle for a spawned generator: done flag and return value."""

    __slots__ = ("gen", "label", "done", "result")

    def __init__(self, gen: Generator, label: str = "") -> None:
        self.gen = gen
        self.label = label
        self.done = False
        self.result: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"Task({self.label or self.gen.__name__!s}, {state})"


class EventLoop:
    """Run generator tasks in ``(due_time, sequence)`` order.

    ``now`` and ``advance`` are the virtual clock read/advance pair —
    for a study, ``ecosystem.clock.now`` and ``ecosystem.advance_to``
    so ecosystem timers fire while tasks wait.
    """

    def __init__(
        self,
        now: Callable[[], float],
        advance: Callable[[float], None],
    ) -> None:
        self._now = now
        self._advance = advance
        self._heap: list[tuple[float, int, Task]] = []
        self._sequence = 0

    # -- scheduling --------------------------------------------------------

    def spawn(
        self,
        gen: Generator,
        at: Optional[float] = None,
        label: str = "",
    ) -> Task:
        """Admit a task; it first runs at ``at`` (default: now)."""
        task = Task(gen, label)
        self._push(at if at is not None else self._now(), task)
        return task

    def _push(self, due: float, task: Task) -> None:
        heapq.heappush(self._heap, (due, self._sequence, task))
        self._sequence += 1

    @property
    def pending(self) -> int:
        """Parked (not yet finished) task entries."""
        return len(self._heap)

    # -- execution ---------------------------------------------------------

    def run(self) -> None:
        """Drain the heap: advance virtual time and resume each task.

        Returns when every spawned task has finished.  A task exception
        propagates immediately — deterministic schedules make the crash
        reproducible, so there is nothing useful to half-continue.
        """
        heap = self._heap
        while heap:
            due, _, task = heapq.heappop(heap)
            # Mirrors the blocking scanner: never rewind the clock.
            self._advance(max(due, self._now()))
            try:
                waited = task.gen.send(None)
            except StopIteration as stop:
                task.done = True
                task.result = stop.value
                continue
            self._push(waited.due(self._now()), task)


class _DemoClock:
    """Minimal stand-in for ``SimClock`` used by this module's doctests."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def advance(self, when: float) -> None:
        self.t = max(self.t, when)


__all__ = ["EventLoop", "Task", "Wait"]

"""Discrete-event core: the event queue and serially-reusable resources.

The ORAM backends are networks of exclusive resources (SDIMM internal
channels, the serial Freecursive backend, split groups) fed by dependency
chains (PosMap walks).  Correct overlap — one chain's op filling the gap
another chain left on a device — requires executing work in *time* order,
not call order, so the simulator is event-driven: callbacks fire in
timestamp order, and each :class:`WorkQueue` starts queued jobs exactly
when its resource falls idle.

Hot-path note: a benchmark run fires hundreds of thousands of events, so
the scheduler stores ``(time, sequence, fn, args)`` tuples instead of
closures — :meth:`EventQueue.call_at` passes arguments positionally and
:class:`WorkQueue` completion avoids allocating one lambda per job.  Both
classes are slotted; events fire in time order, then insertion order.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

_NO_ARGS: Tuple = ()


class EventQueue:
    """A classic discrete-event scheduler."""

    __slots__ = ("_heap", "_sequence", "now")

    def __init__(self):
        self._heap: List[Tuple[int, int, Callable, Tuple]] = []
        self._sequence = 0
        self.now = 0

    def at(self, time: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` when simulated time reaches ``time``."""
        if time < self.now:
            time = self.now
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, callback, _NO_ARGS))

    def call_at(self, time: int, fn: Callable, *args) -> None:
        """Like :meth:`at` but passes ``args`` positionally at fire time.

        Storing the arguments in the heap entry instead of a closure keeps
        the per-event allocation down to one tuple.
        """
        if time < self.now:
            time = self.now
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, fn, args))

    def run(self) -> int:
        """Drain all events; returns the final simulation time."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, _, fn, args = pop(heap)
            if time > self.now:
                self.now = time
            fn(*args)
        return self.now

    @property
    def pending(self) -> int:
        return len(self._heap)


class WorkQueue:
    """FIFO work dispatch for an exclusive resource.

    A job is ``work(start_cycle) -> finish_cycle`` plus a completion
    callback.  Jobs run back to back in arrival order; ``work`` executes at
    the moment the resource picks the job up, so stateful timing models
    (bank machines, row buffers) see operations in true time order.
    """

    __slots__ = ("events", "name", "_queue", "_busy", "jobs_started",
                 "busy_until")

    def __init__(self, events: EventQueue, name: str = "resource"):
        self.events = events
        self.name = name
        self._queue: Deque = deque()
        self._busy = False
        self.jobs_started = 0
        self.busy_until = 0

    def enqueue(self, arrival: int, work: Callable[[int], int],
                done: Optional[Callable[[int], None]] = None) -> None:
        self._queue.append((arrival, work, done))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        arrival, work, done = self._queue[0]
        start = max(self.events.now, arrival)
        if start > self.events.now:
            # resource idles until the job's inputs arrive
            self._busy = True
            self.events.at(start, self._start_next_now)
            return
        self._queue.popleft()
        self._busy = True
        self.jobs_started += 1
        finish = work(start)
        self.busy_until = finish
        self.events.call_at(finish, self._finish, finish, done)

    def _start_next_now(self) -> None:
        self._busy = False
        self._start_next()

    def _finish(self, finish: int,
                done: Optional[Callable[[int], None]]) -> None:
        if done is not None:
            done(finish)
        self._busy = False
        self._start_next()

    @property
    def depth(self) -> int:
        return len(self._queue)

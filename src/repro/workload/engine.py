"""The discrete-event engine driving the synthetic users.

Processes are plain Python generators that yield the number of simulated
seconds to sleep; the engine resumes them in time order against the shared
:class:`~repro.clock.Clock`.  A multi-day trace therefore generates in
seconds of real time, and interleaving between users is faithful — an
editor session's operations weave between a long CAD run exactly as
scheduled.

Usage::

    engine = Engine(clock)
    engine.spawn(user_session(...))
    engine.spawn(status_daemon(...), delay=5.0)
    engine.run(until=3600.0)
"""

from __future__ import annotations

import heapq
from typing import Generator, Iterator

from ..clock import Clock

__all__ = ["Engine", "Process"]

#: A workload process: yields sleep durations in simulated seconds.
Process = Generator[float, None, None]


class Engine:
    """A minimal deterministic discrete-event simulator."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self._heap: list[tuple[float, int, Process]] = []
        self._seq = 0  # tie-breaker keeps same-time resumption FIFO
        self.resumptions = 0

    def spawn(self, process: Process, delay: float = 0.0) -> None:
        """Schedule *process* to start *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"negative spawn delay {delay}")
        heapq.heappush(self._heap, (self.clock.now() + delay, self._seq, process))
        self._seq += 1

    @property
    def pending(self) -> int:
        """Number of processes waiting to run."""
        return len(self._heap)

    def run(self, until: float) -> None:
        """Run until the virtual clock reaches *until* or no work remains.

        Processes scheduled past the horizon stay unresumed (their
        generators are closed so finally-blocks run).

        A process whose next wake time is strictly earlier than every
        other pending one, and within the horizon, would be popped again
        straight after its push; it is resumed again at once instead.
        That is the order the heap gives — an equal wake time still goes
        behind the waiting process, which holds the older sequence number
        — and each resumption still counts.
        """
        heap = self._heap
        clock = self.clock
        while heap and heap[0][0] <= until:
            when, _seq, process = heapq.heappop(heap)
            clock.set(max(clock.now(), when))
            while True:
                self.resumptions += 1
                try:
                    delay = next(process)
                except StopIteration:
                    break
                if delay is None or delay < 0:
                    raise ValueError(
                        f"process yielded invalid delay {delay!r}; processes "
                        "must yield non-negative sleep durations"
                    )
                wake = clock.now() + delay
                if wake <= until and (not heap or wake < heap[0][0]):
                    clock.set(wake)
                    continue
                heapq.heappush(heap, (wake, self._seq, process))
                self._seq += 1
                break
        # Horizon reached: let remaining processes clean up.
        if clock.now() < until:
            clock.set(until)
        for _when, _seq, process in heap:
            process.close()
        heap.clear()

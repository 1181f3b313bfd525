"""Discrete-event simulation kernel (the ns-2 scheduler substitute).

A :class:`Simulator` owns a binary-heap event queue and a simulation clock.
Heap entries are ``(time, priority, sequence, event)`` tuples; sequence
numbers break ties so that events scheduled earlier at the same instant fire
first, keeping runs fully deterministic.  Because sequence numbers are
unique, tuple comparison never reaches the event object itself — the heap
orders entirely on the pre-built ``(time, priority, sequence)`` key in C,
which is what makes :meth:`Simulator.step` dispatch cheap.  Randomness is
provided through named :meth:`Simulator.rng` streams seeded from a single
master seed, so any component (MAC backoff, traffic jitter, TITAN coin
flips) can draw without perturbing the others — re-running with the same
seed reproduces the run exactly regardless of which subsystems are enabled.

This per-seed determinism is what lets the parallel orchestrator
(:mod:`repro.experiments.parallel`) promise bit-identical results whether a
sweep runs serially or fanned out across processes: a cell's outcome
depends only on its own master seed, never on scheduling order elsewhere.

Cancelled events are not removed from the heap eagerly (that would be
O(n)); they are skipped when popped.  The kernel counts dead entries and
compacts the heap whenever they outnumber the live ones, so timer-restart
churn (ODPM keep-alives re-arming on every communication event) cannot grow
the queue beyond O(live events).

Units: all times in this module are **simulation seconds**; the kernel
itself carries no energy state (joules are accounted by
:mod:`repro.core.energy_model` from the state residencies the simulation
produces).  Provenance: the kernel replaces the ns-2 scheduler used for the
paper's §5.2 evaluation.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Callable


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (e.g. events in the past)."""


#: Dead entries are tolerated until they exceed both this floor and half the
#: queue; the floor keeps tiny simulations from compacting constantly.
_COMPACT_MIN_DEAD = 64


class _Event:
    """Queued callback.  Ordering lives in the heap-entry tuple, not here."""

    __slots__ = ("time", "callback", "cancelled", "fired")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: _Event, sim: "Simulator") -> None:
        self._event = event
        self._sim = sim

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Mark the event so that it is skipped when popped.

        Cancelling an already-fired or already-cancelled event is a no-op.
        """
        event = self._event
        if event.cancelled:
            return
        event.cancelled = True
        if not event.fired:
            self._sim._note_dead()


class Simulator:
    """Deterministic event-driven simulator.

    Parameters
    ----------
    seed:
        Master seed for all random streams.
    """

    def __init__(self, seed: int = 1) -> None:
        #: Current simulation time in seconds.  A plain attribute (not a
        #: property): it is read on every charge/schedule call, and the
        #: descriptor dispatch of a property is measurable there.  Treat it
        #: as read-only outside the kernel.
        self.now = 0.0
        self._queue: list[tuple[float, int, int, _Event]] = []
        self._sequence = 0
        self._dead = 0
        self._seed = seed
        self._rngs: dict[str, random.Random] = {}
        self._running = False
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Clock and randomness
    # ------------------------------------------------------------------
    @property
    def seed(self) -> int:
        return self._seed

    def rng(self, stream: str) -> random.Random:
        """Return the named random stream, creating it on first use.

        A stream is ``random.Random("<master_seed>/<stream>")``: seeded with
        that string, so distinct names are independent and reproducible.
        Its draws depend only on the master seed and the name, never on
        when the stream is created or on what other streams have drawn, so
        a component may create its stream lazily, at its first draw.
        Callers on hot paths should cache the returned generator rather
        than re-resolving the stream name per draw.
        """
        rng = self._rngs.get(stream)
        if rng is None:
            rng = self._rngs[stream] = random.Random(
                "%d/%s" % (self._seed, stream)
            )
        return rng

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` simulation seconds from now.

        Lower ``priority`` values fire earlier among same-time events.
        """
        if delay < 0:
            raise SimulationError(
                "cannot schedule %r in the past (delay=%r)" % (callback, delay)
            )
        return self.schedule_at(self.now + delay, callback, priority)

    def schedule_at(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation ``time`` (seconds)."""
        if time < self.now:
            raise SimulationError(
                "cannot schedule at %r, now is %r" % (time, self.now)
            )
        event = _Event(time, callback)
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._queue, (time, priority, sequence, event))
        return EventHandle(event, self)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_dead(self) -> None:
        """Count a newly-dead queue entry; compact when dead outnumber live.

        Compaction keeps the heap O(live events) under timer-restart churn
        (see :class:`Timer`): without it, every ODPM keep-alive extension
        would leave a dead entry in the queue for the rest of the run.
        """
        self._dead = dead = self._dead + 1
        queue = self._queue
        if dead > _COMPACT_MIN_DEAD and dead * 2 > len(queue):
            # In-place so that a running `run()` loop, which holds a local
            # reference to the list, sees the compacted heap.
            queue[:] = [entry for entry in queue if not entry[3].cancelled]
            heapify(queue)
            self._dead = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            event = heappop(queue)[3]
            if event.cancelled:
                self._dead -= 1
                continue
            event.fired = True
            self.now = event.time
            self.events_processed += 1
            event.callback()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute simulation time in seconds.  When stopping
        at ``until``, the clock is advanced to exactly ``until`` so that
        passive-time accounting (idle/sleep energy, charged in joules by the
        energy ledgers) covers the full horizon even if the last event fired
        earlier.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        fired = 0
        queue = self._queue
        try:
            while queue:
                if max_events is not None and fired >= max_events:
                    return
                head = queue[0]
                event = head[3]
                if event.cancelled:
                    heappop(queue)
                    self._dead -= 1
                    continue
                if until is not None and head[0] > until:
                    break
                heappop(queue)
                event.fired = True
                self.now = event.time
                self.events_processed += 1
                event.callback()
                fired += 1
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def close(self) -> None:
        """Drop every pending event and its callback.

        Callbacks close over the components that scheduled them, and those
        components often hold the event's handle, so a finished run's queue
        keeps reference cycles alive.  Dropping the callbacks breaks them
        and lets reference counting free the network instead of the cyclic
        collector.  The clock, the event count and the random streams are
        kept; a closed simulator must not be run again.
        """
        for entry in self._queue:
            entry[3].callback = None
        self._queue.clear()
        self._dead = 0

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return len(self._queue) - self._dead

    def queue_size(self) -> int:
        """Raw heap length, dead entries included (compaction diagnostics)."""
        return len(self._queue)


class Timer:
    """A restartable one-shot timer (keep-alive timers, route timeouts).

    Restarting an armed timer cancels the previous expiry, which is exactly
    the semantics ODPM's keep-alive behaviour needs (§2.2 / [25]): each
    communication event extends the node's stay in active mode.  All delays
    are simulation seconds.  The dead entries this churn leaves in the event
    queue are bounded by the kernel's heap compaction.
    """

    __slots__ = ("_sim", "_callback", "_handle")

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._handle: EventHandle | None = None

    @property
    def armed(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    def restart(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` simulation seconds from now."""
        self.cancel()
        self._handle = self._sim.schedule(delay, self._fire)

    def extend_to(self, delay: float) -> None:
        """Arm the timer only if it would extend the current expiry."""
        target = self._sim.now + delay
        if self.armed:
            assert self._handle is not None
            if self._handle.time >= target:
                return
        self.restart(delay)

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def close(self) -> None:
        """Cancel the timer and release its callback for good.

        The callback is usually a method of the timer's owner, which holds
        the timer: a reference cycle that this breaks.
        """
        self.cancel()
        self._callback = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()

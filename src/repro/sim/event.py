"""The cancel handle of one queued callback.

:meth:`~repro.sim.kernel.Simulator.schedule` (and ``call_in`` / ``call_at``,
which go through it) queues an :class:`Event` wrapping the callback, so
the caller can take it back: ``ReliableMessageService`` cancels a
retransmit timer once its message is acknowledged.  A cancelled Event
stays in the heap and is skipped, uncounted, when popped;
:attr:`~repro.sim.kernel.Simulator.queue_length` leaves it out.
Callbacks nobody will cancel ride ``Simulator.call_in_fast`` as bare
callables and never build one.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Event"]


class Event:
    """A queued callback ``fn()`` that can still be cancelled."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        """Keep ``fn`` from firing; a no-op once it has fired."""
        self.cancelled = True

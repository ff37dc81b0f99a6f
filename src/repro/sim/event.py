"""Simulation events.

An :class:`Event` is a one-shot occurrence at a virtual time.  Callbacks may
be attached before or after scheduling; events may be cancelled.  Ordering is
``(time, priority, sequence)`` so simultaneous events fire in a deterministic,
insertion-stable order.

The kernel's ``heapq`` queue stores lean ``(time, priority, seq, payload)``
tuples rather than Event objects, so :meth:`Event.__lt__` is off the hot
path — it is kept because user code sorts Events directly (and it defines
the ordering contract the tuples reproduce).  A cancelled Event stays in
the heap and is skipped when popped.  Packet completions that are
never waited on or cancelled skip Event entirely via
``Simulator.call_in_fast``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = ["Event"]


class Event:
    """A schedulable occurrence in virtual time.

    Events move through three states: *pending* (created, maybe scheduled),
    *fired* (callbacks ran, ``value`` set), *cancelled*.  Processes can wait
    on events; the kernel resumes them when the event fires.
    """

    __slots__ = (
        "sim",
        "time",
        "priority",
        "seq",
        "value",
        "_callbacks",
        "_fired",
        "_cancelled",
        "name",
    )

    def __init__(self, sim: "Simulator", name: str = ""):  # noqa: F821
        self.sim = sim
        self.name = name
        self.time: Optional[float] = None
        self.priority = 0
        self.seq = -1
        self.value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []
        self._fired = False
        self._cancelled = False

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def pending(self) -> bool:
        return not self._fired and not self._cancelled

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Attach ``fn`` to run when the event fires.

        If the event already fired, ``fn`` runs immediately (same semantics
        as attaching to a resolved future).
        """
        if self._fired:
            fn(self)
        elif not self._cancelled:
            self._callbacks.append(fn)

    def cancel(self) -> None:
        """Cancel a pending event; firing becomes a no-op."""
        if not self._fired:
            self._cancelled = True
            self._callbacks.clear()

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event immediately (now), outside the scheduler queue."""
        self._fire(value)
        return self

    def _fire(self, value: Any = None) -> None:
        if self._cancelled or self._fired:
            return
        self._fired = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:
        state = (
            "cancelled"
            if self._cancelled
            else "fired" if self._fired else "pending"
        )
        return f"Event({self.name or hex(id(self))}, t={self.time}, {state})"

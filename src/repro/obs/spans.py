"""Hierarchical spans: named intervals of virtual *and* wall-clock time.

A span brackets a phase of work (``with sim.span("synthesis"): ...``),
nests, carries attributes, and records both how much *simulated* time
elapsed while it was open and how much *wall-clock* time the host spent.
The former answers model questions ("how long did re-synthesis take the
battlefield?"), the latter answers engineering questions ("where does the
harness spend its real seconds?") — the self-monitoring substrate the
paper's adaptive IoBT loop assumes.

Spans are tracked per *scope*.  A callback chain that opens a span in one
event and closes it in a later one interleaves in virtual time with every
other chain, so a single global stack would mis-nest the moment two chains
hold spans across events; each scope (defaulting to ``"main"``, typically
the chain's name) gets its own stack, and closing removes the span by
identity, so interleaved open/close orders cannot corrupt a neighbour's
stack.

Closed spans are appended to :attr:`SpanTracker.finished` and emitted as
``obs.span`` trace records, which means any attached sink (see
:mod:`repro.obs.sinks`) streams them out for ``repro.obs report``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

__all__ = ["Span", "SpanTracker"]


class Span:
    """One named interval; also the context manager that closes it."""

    __slots__ = (
        "name",
        "scope",
        "attrs",
        "parent",
        "depth",
        "t_start",
        "t_end",
        "wall_start",
        "wall_end",
        "_tracker",
    )

    def __init__(
        self,
        tracker: "SpanTracker",
        name: str,
        scope: str,
        parent: Optional["Span"],
        attrs: Dict[str, Any],
    ):
        self._tracker = tracker
        self.name = name
        self.scope = scope
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.attrs = attrs
        self.t_start = tracker._sim.now
        self.t_end: Optional[float] = None
        self.wall_start = time.perf_counter()
        self.wall_end: Optional[float] = None

    # ------------------------------------------------------------- durations

    @property
    def virtual_s(self) -> float:
        """Simulated time elapsed while the span was open."""
        end = self.t_end if self.t_end is not None else self._tracker._sim.now
        return end - self.t_start

    @property
    def wall_s(self) -> float:
        """Wall-clock time elapsed while the span was open (inclusive of
        everything the host executed meanwhile, including other callback
        chains)."""
        end = self.wall_end if self.wall_end is not None else time.perf_counter()
        return end - self.wall_start

    @property
    def path(self) -> str:
        """Semicolon-joined ancestry, collapsed-stack style (``a;b;c``)."""
        parts: List[str] = []
        node: Optional[Span] = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return ";".join(reversed(parts))

    # ------------------------------------------------------- context manager

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if self.t_end is not None:
            return
        self.t_end = self._tracker._sim.now
        self.wall_end = time.perf_counter()
        self._tracker._close(self)

    def __repr__(self) -> str:
        state = "open" if self.t_end is None else "closed"
        return f"Span({self.path!r}, scope={self.scope!r}, {state})"


class SpanTracker:
    """Per-scope span stacks attached to one simulator."""

    def __init__(self, sim: "Simulator"):  # noqa: F821
        self._sim = sim
        self._stacks: Dict[str, List[Span]] = {}
        self.finished: List[Span] = []
        #: Emit an ``obs.span`` trace record for every closed span.
        self.emit_trace = True

    def span(self, name: str, *, scope: str = "main", **attrs: Any) -> Span:
        """Open a span; close via ``with`` or :meth:`Span.close`."""
        stack = self._stacks.setdefault(scope, [])
        parent = stack[-1] if stack else None
        span = Span(self, name, scope, parent, attrs)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        stack = self._stacks.get(span.scope, [])
        # Remove by identity: an interleaved (or even misnested) close must
        # never pop a different span off this — or any other — stack.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                del stack[i]
                break
        self.finished.append(span)
        trace = self._sim.trace
        if self.emit_trace and trace.enabled:
            # The in-memory trace record stays deterministic (virtual time
            # only) so span-instrumented runs keep stable fingerprints; the
            # wall-clock figure goes straight to the sinks as a dedicated
            # record type for `repro.obs report`.
            trace.emit(
                "obs.span",
                name=span.name,
                scope=span.scope,
                path=span.path,
                depth=span.depth,
                virtual_s=span.virtual_s,
                **span.attrs,
            )
            trace.write_record(
                {
                    "type": "span",
                    "time": span.t_end,
                    "name": span.name,
                    "scope": span.scope,
                    "path": span.path,
                    "depth": span.depth,
                    "virtual_s": span.virtual_s,
                    "wall_s": span.wall_s,
                    **span.attrs,
                }
            )

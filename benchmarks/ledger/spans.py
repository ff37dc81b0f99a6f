"""In-memory spans and instance-level timing proxies for the traced pass.

A :class:`SpanRecorder` keeps one record per call crossing a layer boundary
— (name, start, end, parent) in four parallel arrays — plus summed work
units per name (batch widths, bytes).  Nothing is aggregated while the run
is in flight; :meth:`SpanRecorder.totals` folds the arrays into
``name -> (calls, total_s, self_s)`` afterwards, where self time is a span's
duration minus the part its child spans cover.

Proxies are installed on *instances* (``setattr(obj, "method", proxy)``
shadows the class attribute for that one object) and removed again with
:meth:`SpanRecorder.remove`, so no class in ``src/`` is ever touched and an
untraced pass in the same process runs the unmodified code.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()

#: Event callbacks between two samples of ``Simulator.queue_length`` (an
#: O(queue) walk, so it is sampled, not read per event).
QUEUE_SAMPLE_EVERY = 4096


class SpanRecorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        #: Index of the enclosing span; -1 for a span nothing encloses.
        self.parent = array("l")
        self.units: Dict[str, int] = {}
        self.queue_peak = 0
        # Seconds spent inside the kernel hook itself: it runs in the
        # kernel's loop, so the loop's self time is reported net of it.
        self._hook_s = [0.0]
        self._stack: List[int] = []
        # Closed top-level spans of the event callback now running; the
        # kernel hook adopts them once the callback's own span exists.
        self._orphans: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- recording

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _spanned(self, fn: Callable[..., Any], nid: int) -> Callable[..., Any]:
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, orphans = self._stack, self._orphans

        # The stamps are the outermost statements, so a proxy's bookkeeping
        # is charged to its own span and not to the caller's self time.
        def call(*args: Any, **kwargs: Any) -> Any:
            start.append(perf_counter())
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                if not stack:
                    orphans.append(idx)
                end[idx] = perf_counter()

        return call

    def record(self, name: str, start: float, end: float) -> None:
        """Add one already-timed, parentless span."""
        self.name_id.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)

    def add_units(self, name: str, amount: int) -> None:
        self.units[name] = self.units.get(name, 0) + amount

    # --------------------------------------------------------------- proxies

    def _patch(self, obj: Any, attr: str, value: Any) -> None:
        self._patched.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, value)

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        *,
        units_of: Optional[Callable[[Tuple[Any, ...]], int]] = None,
        callback: Optional[Tuple[int, str]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a proxy recording a ``name`` span per call.

        ``units_of(args)`` adds work units to ``name`` (a batch's width);
        ``callback=(i, span_name)`` also wraps the callable passed as
        positional argument ``i`` — a completion the layer above handed
        down — so its time is charged to that layer, not to the caller.
        """
        inner = getattr(obj, attr)
        if units_of is not None:
            timed, units = inner, self.units
            units.setdefault(name, 0)

            def inner(*args: Any, **kwargs: Any) -> Any:  # noqa: F811
                units[name] += units_of(args)
                return timed(*args, **kwargs)

        if callback is not None:
            index, cb_nid = callback[0], self._id(callback[1])
            passed, spanned = inner, self._spanned

            def inner(*args: Any, **kwargs: Any) -> Any:  # noqa: F811
                if len(args) > index and args[index] is not None:
                    args = (
                        args[:index]
                        + (spanned(args[index], cb_nid),)
                        + args[index + 1 :]
                    )
                return passed(*args, **kwargs)

        self._patch(obj, attr, self._spanned(inner, self._id(name)))

    def hook_kernel(self, sim: Any, layer_of: Callable[[str], str]) -> None:
        """Turn every event callback into a root span.

        ``Simulator.run`` reports ``(label, wall_s)`` to its profiler after
        each callback; shadowing that one method gives the callback's span
        (named ``layer_of(label) + "@event"``) and lets it adopt the proxy
        spans recorded while it ran.
        """
        profiler = sim.enable_profiling()
        inner = profiler.record
        label_ids: Dict[str, int] = {}
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        orphans = self._orphans
        countdown = [QUEUE_SAMPLE_EVERY]
        hook_s = self._hook_s

        def record(label: str, wall_s: float) -> None:
            now = perf_counter()
            inner(label, wall_s)
            nid = label_ids.get(label)
            if nid is None:
                nid = label_ids[label] = self._id(layer_of(label) + "@event")
            idx = len(start)
            name_id.append(nid)
            start.append(now - wall_s)
            end.append(now)
            parent.append(-1)
            if orphans:
                for child in orphans:
                    parent[child] = idx
                del orphans[:]
            countdown[0] -= 1
            if not countdown[0]:
                countdown[0] = QUEUE_SAMPLE_EVERY
                self.queue_peak = max(self.queue_peak, sim.queue_length)
            hook_s[0] += perf_counter() - now

        self._patch(profiler, "record", record)

    def remove(self) -> None:
        """Take every proxy off again (in reverse order of installation)."""
        while self._patched:
            obj, attr, previous = self._patched.pop()
            if previous is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)

    @property
    def installed(self) -> int:
        return len(self._patched)

    @property
    def hook_s(self) -> float:
        return self._hook_s[0]

    # --------------------------------------------------------------- results

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total_s, self_s)`` over every recorded span."""
        n = len(self.names)
        calls, total, self_s = [0] * n, [0.0] * n, [0.0] * n
        name_id, parent = self.name_id, self.parent
        for idx, nid in enumerate(name_id):
            duration = self.end[idx] - self.start[idx]
            calls[nid] += 1
            total[nid] += duration
            self_s[nid] += duration
            if parent[idx] >= 0:
                self_s[name_id[parent[idx]]] -= duration
        return {
            name: (calls[i], total[i], self_s[i]) for i, name in enumerate(self.names)
        }

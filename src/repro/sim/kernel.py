"""The discrete-event scheduler.

:class:`Simulator` owns the virtual clock, the event queue, the RNG streams
for the run, and the metric/trace recorders.  The queue is a binary heap
(``heapq``) of lean ``(time, seq, payload)`` tuples: ``seq`` is unique, so
tuple comparison in C fires events in exactly ``(time, seq)`` order and
never compares two payloads.  Payloads come in two shapes:

* an :class:`~repro.sim.event.Event` — the cancel handle that
  :meth:`Simulator.schedule` (and ``call_in`` / ``call_at`` through it)
  wraps around the callback, for callers that may take it back; and
* a bare callable — the **fast lane** (:meth:`Simulator.call_in_fast`)
  used by the per-packet hot path, which never cancels.

Both lanes share one sequence counter and one firing block, so
interleaved scheduling keeps the historical fire order exactly;
fast-lane firings count toward :attr:`Simulator.events_processed` (and
the separate :attr:`Simulator.events_fast` tally) so telemetry,
manifests, and events/sec never lose them.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.profiler import KernelProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span, SpanTracker
from repro.sim.event import Event
from repro.sim.metrics import MetricRecorder
from repro.sim.trace import TraceLog
from repro.util.rng import RngStreams

__all__ = ["Simulator"]


def _noop() -> None:
    """The callback of a bare ``schedule(delay)``: the entry only marks a time."""


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all RNG streams used by components in this run.

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> hits = []
    >>> _ = sim.call_in(5.0, lambda: hits.append(sim.now))
    >>> sim.run(until=10.0)
    >>> hits
    [5.0]
    """

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self.rng = RngStreams(seed)
        self.metrics = MetricRecorder(self)
        self.trace = TraceLog(self)
        self.spans = SpanTracker(self)
        self.registry = MetricsRegistry()
        #: Opt-in kernel profiler; ``None`` keeps the hot loop unchanged.
        self.profiler: Optional[KernelProfiler] = None
        #: Opt-in causal packet tracer (see :mod:`repro.obs.tracing`);
        #: ``None`` keeps every transmit path unchanged.
        self.packet_tracer: Optional[Any] = None
        #: When set (``REPRO_OBS_RING_DIR``), :meth:`export_obs` also dumps
        #: the trace as a binary ``.ring`` file at this path.
        self.ring_dump_path: Optional[str] = None
        #: Provenance facts for :mod:`repro.obs.forensics` RunManifests:
        #: builders stamp ``content_hashes`` (name -> digest of the spec
        #: that shaped this run) and, when the whole world is rebuildable
        #: from a declarative spec, a ``scenario`` replay payload.
        self.provenance: Dict[str, Any] = {}
        #: Periodic ``(time, per-stream draw counts)`` checkpoints captured
        #: by :meth:`enable_rng_checkpoints`; manifests embed them so
        #: ``python -m repro.obs replay --from T`` can window its asserts.
        self.rng_checkpoints: List[Dict[str, Any]] = []
        self.rng_checkpoint_interval_s: Optional[float] = None
        #: Events fired and wall-clock seconds spent across all run() calls.
        self.events_processed = 0
        #: Of :attr:`events_processed`, how many fired through the fast
        #: lane (:meth:`call_in_fast`, which :meth:`every` ticks ride too) —
        #: a subset, not an addition.
        self.events_fast = 0
        self.wall_elapsed = 0.0
        #: The pending entries, a ``heapq`` heap of ``(time, seq, payload)``
        #: tuples; cancelled Events stay in it until popped.
        self._queue: List[Tuple[float, int, Any]] = []
        self._seq = 0
        self._running = False

    # ------------------------------------------------------------------ events

    def schedule(self, delay: float, fn: Callable[[], None] = _noop) -> Event:
        """Run ``fn()`` after ``delay``; the returned Event can cancel it."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        ev = Event(fn)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now + delay, seq, ev))
        return ev

    def call_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute virtual time ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"call_at({time}) is in the past (now={self.now})")
        return self.schedule(time - self.now, fn)

    def call_in(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` time units."""
        return self.schedule(delay, fn)

    def call_in_fast(self, delay: float, fn: Callable[[], None]) -> None:
        """Fast-lane ``call_in``: run ``fn()`` after ``delay``, no Event.

        The packet hot path schedules completions that are never
        cancelled; for those one tuple is the entire cost.  Ordering is
        identical to :meth:`call_in` (both lanes consume the same sequence
        counter).  Use :meth:`call_in` whenever the caller might cancel.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now + delay, seq, fn))

    def every(
        self,
        interval: float,
        fn: Callable[[], None],
        *,
        start_delay: Optional[float] = None,
        until: Optional[float] = None,
    ) -> None:
        """Run ``fn()`` periodically every ``interval`` time units.

        The recurrence stops when the simulation horizon is reached or when
        ``until`` (absolute time) passes.  Ticks ride the fast lane (nothing
        can cancel or await them), so they count toward
        :attr:`events_fast`: ``sim.events_fast_share`` is higher on worlds
        that use ``every``.  The profiler labels each firing
        ``Simulator.every.<locals>.tick``.
        """
        if interval <= 0:
            raise SimulationError("interval must be positive")

        first = interval if start_delay is None else start_delay

        def tick() -> None:
            if until is not None and self.now > until:
                return
            fn()
            self.call_in_fast(interval, tick)

        self.call_in_fast(first, tick)

    # ----------------------------------------------------------------- running

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Run until the queue drains, ``until`` is reached, or event budget ends.

        ``until`` is an absolute virtual time; the clock is advanced to it
        even if the queue drains earlier, so periodic metrics cover the full
        horizon.  Wall-clock spent and events fired accumulate on
        :attr:`wall_elapsed` / :attr:`events_processed` across calls, so
        every harness gets an events/sec figure for free.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        t_wall = perf_counter()
        queue = self._queue
        horizon = math.inf if until is None else until
        # The one event loop, inlined (a method call per event is
        # measurable at millions of events).  An entry past the horizon is
        # left at the head of the heap, where a later run() call finds it.
        try:
            fired = 0
            while queue:
                if queue[0][0] > horizon:
                    break
                time, _, fn = heappop(queue)
                if isinstance(fn, Event):
                    if fn.cancelled:
                        continue
                    fn = fn.fn
                else:
                    self.events_fast += 1
                if time < self.now:  # pragma: no cover - schedule() guards
                    raise SimulationError("event queue corrupted: time went backward")
                self.now = time
                self.events_processed += 1
                profiler = self.profiler
                if profiler is not None and profiler.enabled:
                    label = getattr(fn, "__qualname__", "") or repr(fn)
                    t0 = perf_counter()
                    fn()
                    profiler.record(label, perf_counter() - t0)
                else:
                    fn()
                fired += 1
                if fired >= max_events:
                    raise SimulationError(
                        f"event budget exhausted ({max_events} events)"
                    )
            if until is not None and self.now < until:
                self.now = until
        finally:
            self.wall_elapsed += perf_counter() - t_wall
            self._running = False

    @property
    def queue_length(self) -> int:
        return sum(
            1
            for entry in self._queue
            if not (isinstance(entry[2], Event) and entry[2].cancelled)
        )

    # ----------------------------------------------------------- observability

    @property
    def events_per_sec(self) -> float:
        """Kernel throughput across all :meth:`run` calls so far.

        Counts both lanes — cancellable Events and fast-lane callables — since
        :meth:`run` tallies them on the same counter.  Degenerate clocks
        (a zero-work run, a coarse timer rounding wall time to ~0, or a
        poisoned ``wall_elapsed``) yield ``0.0`` rather than letting
        ``inf``/``nan`` leak into exported telemetry JSON.
        """
        if not math.isfinite(self.wall_elapsed) or self.wall_elapsed < 1e-9:
            return 0.0
        rate = self.events_processed / self.wall_elapsed
        return rate if math.isfinite(rate) else 0.0

    def span(self, name: str, *, scope: str = "main", **attrs: Any) -> Span:
        """Open a hierarchical span (see :mod:`repro.obs.spans`):

        >>> sim = Simulator()
        >>> with sim.span("synthesis", assets=3):
        ...     pass
        >>> sim.spans.finished[0].name
        'synthesis'
        """
        return self.spans.span(name, scope=scope, **attrs)

    def enable_profiling(self) -> KernelProfiler:
        """Attach (or return the existing) kernel profiler."""
        if self.profiler is None:
            self.profiler = KernelProfiler()
        return self.profiler

    def enable_packet_tracing(self):
        """Attach (or return the existing) causal packet tracer.

        Networks bound to this simulator start stamping
        :data:`~repro.obs.tracing.TRACE_HEADER` headers and emitting
        per-hop ``pkt.*`` events; ``python -m repro.obs trace``
        reconstructs latency attributions from the export.
        """
        if self.packet_tracer is None:
            # Imported lazily: obs.tracing is pure but keeping the kernel's
            # import surface minimal keeps cold-start cheap.
            from repro.obs.tracing import PacketTracer

            self.packet_tracer = PacketTracer(self)
        return self.packet_tracer

    def enable_rng_checkpoints(self, interval_s: float) -> None:
        """Capture per-stream RNG draw counts every ``interval_s``.

        The checkpoint callback draws no randomness and emits no trace
        records, so enabling it never perturbs the simulated world — it
        only reads generator states (via the PCG64 distance walk in
        :mod:`repro.util.rng`).  Checkpoints land on
        :attr:`rng_checkpoints` and travel in RunManifests, giving replay
        a first-divergence bisector over time.
        """
        self.rng_checkpoint_interval_s = interval_s

        def checkpoint() -> None:
            self.rng_checkpoints.append(
                {"time": self.now, "draws": self.rng.draw_counts()}
            )

        self.every(interval_s, checkpoint)

    def export_obs(self) -> None:
        """Push profiler rows, registry state, and run counters to the
        trace sinks, then flush them.

        Spans and trace events stream as they happen; this exports the
        cumulative state (safe to call more than once — reports take each
        profile label's latest totals).
        """
        aux: List[Dict[str, Any]] = [
            {
                "type": "meta",
                "event": "export",
                "sim_now": self.now,
                "events_processed": self.events_processed,
                "events_fast": self.events_fast,
                "wall_elapsed_s": self.wall_elapsed,
                "events_per_sec": self.events_per_sec,
            }
        ]
        if self.profiler is not None:
            aux.extend(self.profiler.as_records())
        aux.extend(self.registry.as_records())
        for name, value in self.metrics.counters().items():
            aux.append(
                {"type": "metric", "kind": "counter", "name": name, "value": value}
            )
        write = self.trace.write_record
        for record in aux:
            write(record)
        self.trace.flush_sinks()
        if self.ring_dump_path is not None:
            self.trace.dump_ring(self.ring_dump_path, aux_records=aux)
        self._stamp_manifests()

    def _stamp_manifests(self) -> None:
        """Write a RunManifest next to every file export of this run.

        Each ``<export>.manifest.json`` records the provenance needed to
        reproduce and audit the export (seed, content hashes, RNG stream
        states, env knobs — see :mod:`repro.obs.forensics`).  Imported
        lazily: runs without file sinks never load the forensics layer.
        """
        paths = [
            sink_path
            for sink_path in (
                getattr(sink, "path", None) for sink in self.trace.sinks
            )
            if sink_path
        ]
        if self.ring_dump_path is not None:
            paths.append(self.ring_dump_path)
        if not paths:
            return
        from repro.obs.forensics import manifest_for_sim, manifest_path, write_manifest

        manifest = manifest_for_sim(self, exports=paths)
        for path in paths:
            write_manifest(manifest, manifest_path(path))

    def __repr__(self) -> str:
        return f"Simulator(now={self.now:.3f}, queued={self.queue_length})"

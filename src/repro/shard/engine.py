"""The shard coordinator: window barriers, pipes, retries, merged results.

:class:`ShardedSimulator` exposes the same ``run(until=...)`` surface as
:class:`~repro.sim.kernel.Simulator` but executes the world as N shard
replicas advancing in conservative time windows.  One coordinator loop
(``ShardedSimulator._run``) drives every shard through one protocol:

1. Every shard builds the same world from the spec; its ``("ready", ...)``
   handshake reports its lookahead and the coordinator takes the min.
2. Per window, the coordinator sends ``("window", t_end, handoffs,
   lifecycle)`` to every shard, which applies the inbound cross-shard
   deliveries and injected node up/down events, advances its simulator to
   the barrier, and replies ``("done", ...)`` with its outbox.  A window
   of ``lookahead / 2`` (strictly any window ≤ lookahead) guarantees
   every handoff generated in window *j* delivers after barrier *j*, so
   applying it at the start of window *j+1* never schedules into the
   past.
3. ``("finish",)`` collects per-shard traces and counters, which
   :func:`_merged` merges deterministically — the same merge
   :func:`run_serial` uses: traces via :func:`repro.obs.merge.merge_traces`,
   counters by sum (max for replicated fault counters).

The shard is an :class:`_InlineShard` — a runtime answering the protocol
in-process — under ``mode="inline"``, and the same object behind a pipe in
a forked worker under ``mode="fork"``.  Failure semantics follow
:mod:`repro.campaign.runner`: a worker that dies, errors or misses a
barrier deadline poisons the whole attempt — workers share replicated
state, so partial recovery is impossible by design — and the coordinator
kills the pool and retries the entire run from scratch (deterministic
worlds make the retry bit-identical, minus the chaos that killed it).
Inline exceptions propagate raw.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.merge import (
    merge_metrics,
    merge_traces,
    merged_fingerprint,
    payload_to_records,
)
from repro.shard.runtime import REPLICATED_METRIC_PREFIXES, ShardRuntime
from repro.shard.spec import ShardConfigError, ShardPlan, ShardScenarioSpec

__all__ = [
    "ShardedSimulator",
    "ShardDivergenceError",
    "ShardRunResult",
    "ShardWorkerError",
    "run_serial",
]

#: Hard sanity cap on barrier count: a mis-specified window must fail
#: loudly, not grind through millions of IPC round-trips.
MAX_WINDOWS = 2_000_000


class ShardWorkerError(RuntimeError):
    """A worker died, errored, or missed a barrier deadline."""


class ShardDivergenceError(RuntimeError):
    """A sharded run's merged trace disagreed with the serial reference.

    Raised by :meth:`ShardedSimulator.run_verified` after both runs have
    been dumped to disk; :attr:`report` is the divergence report dict
    (see :func:`repro.obs.forensics.dump_divergence`) naming the first
    divergent event and its owning shard.
    """

    def __init__(self, message: str, report: Dict[str, Any]):
        super().__init__(message)
        self.report = report


@dataclass
class ShardRunResult:
    """Merged outcome of a sharded (or serial reference) run."""

    until: float
    n_shards: int
    mode: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: Merged registry instrument state (see ``merge_metrics``): counters
    #: summed (``faults.*`` max-merged), gauges maxed, histograms merged
    #: bucket-wise — plus the coordinator's ``shard.lag_events`` gauge.
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    events_processed: int = 0
    wall_elapsed_s: float = 0.0
    lookahead_s: float = math.inf
    window_s: float = math.inf
    n_windows: int = 0
    retries: int = 0
    per_shard: List[Dict[str, Any]] = field(default_factory=list)
    #: Forensics provenance (serial runs only): per-stream RNG identity
    #: rows and periodic draw-count checkpoints — the RunManifest inputs.
    rng_streams: List[Dict[str, Any]] = field(default_factory=list)
    rng_checkpoints: List[Dict[str, Any]] = field(default_factory=list)
    checkpoint_interval_s: Optional[float] = None

    def fingerprint(self, categories: Optional[Sequence[str]] = None) -> str:
        """Partition-invariant content hash of the merged trace."""
        return merged_fingerprint(self.records, categories)

    @property
    def events_per_sec(self) -> float:
        if not math.isfinite(self.wall_elapsed_s) or self.wall_elapsed_s < 1e-9:
            return 0.0
        return self.events_processed / self.wall_elapsed_s


def run_serial(
    spec: ShardScenarioSpec,
    until: float,
    *,
    collect_trace: bool = True,
    checkpoint_interval_s: Optional[float] = None,
) -> ShardRunResult:
    """The 1-shard reference run: same keyed dispatch, no barriers.

    ``checkpoint_interval_s`` enables periodic RNG draw-count checkpoints
    (see :meth:`~repro.sim.kernel.Simulator.enable_rng_checkpoints`) —
    the checkpoint callback draws no randomness and emits no records, so
    enabling it never perturbs the trace.  The result then carries the
    RNG provenance a replayable RunManifest needs.
    """
    runtime = ShardRuntime(
        spec, ShardPlan(n_shards=1), 0, collect_trace=collect_trace
    )
    runtime.apply_lifecycle(spec.lifecycle)
    if checkpoint_interval_s is not None:
        runtime.sim.enable_rng_checkpoints(checkpoint_interval_s)
    t0 = time.perf_counter()
    runtime.sim.run(until=until)
    wall = time.perf_counter() - t0
    result = _merged(until, "serial", [runtime.collect()], wall, collect_trace)
    result.rng_streams = runtime.sim.rng.stream_states()
    result.rng_checkpoints = list(runtime.sim.rng_checkpoints)
    result.checkpoint_interval_s = checkpoint_interval_s
    return result


def _merge_counters(payloads: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    merged: Dict[str, float] = {}
    for payload in payloads:
        for name, value in payload["counters"].items():
            if name.startswith(REPLICATED_METRIC_PREFIXES):
                merged[name] = max(merged.get(name, 0.0), value)
            else:
                merged[name] = merged.get(name, 0.0) + value
    return merged


def _merged(
    until: float,
    mode: str,
    payloads: List[Dict[str, Any]],
    wall: float,
    collect_trace: bool,
    lookahead: float = math.inf,
    window: float = math.inf,
    n_windows: int = 0,
) -> ShardRunResult:
    """One :class:`ShardRunResult` from per-shard ``collect()`` payloads."""
    records: List[Dict[str, Any]] = []
    if collect_trace:
        records = merge_traces([payload_to_records(p["trace"]) for p in payloads])
    metrics = merge_metrics(
        [p["metrics"] for p in payloads],
        replicated_prefixes=REPLICATED_METRIC_PREFIXES,
    )
    # Coordinator-side gauge: how unevenly the partition loaded the
    # workers (max minus min events fired).  A lag of ~0 means the
    # layout is balanced; a large one names the scaling bottleneck.
    events = [p["events_processed"] for p in payloads]
    metrics["shard.lag_events"] = {"kind": "gauge", "value": float(max(events) - min(events))}
    return ShardRunResult(
        until=until,
        n_shards=len(payloads),
        mode=mode,
        records=records,
        counters=_merge_counters(payloads),
        metrics=metrics,
        events_processed=sum(events),
        wall_elapsed_s=wall,
        lookahead_s=lookahead,
        window_s=window,
        n_windows=n_windows,
        per_shard=[{"shard": p["shard"], "owned": p["owned"]} for p in payloads],
    )


class _InlineShard:
    """One shard runtime answering the worker protocol in-process.

    :meth:`recv` first returns the ``("ready", ...)`` handshake; each
    :meth:`send` then runs the message to completion and stores the reply
    the next :meth:`recv` returns.  A worker process is this object
    behind a pipe (:func:`_shard_worker_main`).
    """

    def __init__(self, spec: ShardScenarioSpec, plan: ShardPlan, index: int, collect_trace: bool):
        self.runtime = ShardRuntime(spec, plan, index, collect_trace=collect_trace)
        self.index = index
        self._reply = ("ready", index, self.runtime.lookahead_s, len(self.runtime.owned))

    def send(self, msg: Tuple[Any, ...]) -> None:
        runtime = self.runtime
        if msg[0] == "window":
            _tag, t_end, handoffs, lifecycle = msg
            runtime.apply_handoffs(handoffs)
            runtime.apply_lifecycle(lifecycle)
            outbox = runtime.run_window(t_end)
            self._reply = ("done", self.index, outbox, runtime.sim.events_processed)
        elif msg[0] == "finish":
            self._reply = ("result", self.index, runtime.collect())
        else:  # pragma: no cover - protocol guard
            raise ShardWorkerError(f"unknown message {msg[0]!r}")

    def recv(self) -> Tuple[Any, ...]:
        return self._reply


def _shard_worker_main(
    conn: Any, spec: ShardScenarioSpec, plan: ShardPlan, shard_index: int, collect_trace: bool
) -> None:
    """Worker process entry: an :class:`_InlineShard` relayed over a pipe."""
    try:
        shard = _InlineShard(spec, plan, shard_index, collect_trace)
        conn.send(shard.recv())
        while True:
            msg = conn.recv()
            shard.send(msg)
            conn.send(shard.recv())
            if msg[0] == "finish":
                return
    except EOFError:  # coordinator went away; nothing to report to
        pass
    except Exception as exc:
        try:
            conn.send(("error", shard_index, repr(exc)))
        except OSError:
            pass
    finally:
        conn.close()


class _PoolShard:
    """The coordinator's end of one worker process's pipe."""

    def __init__(self, worker_args: Tuple[Any, ...], timeout_s: float):
        self.index = worker_args[2]
        self.timeout_s = timeout_s
        # Fork is the mode; spawn only stands in on a platform without it.
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_shard_worker_main, args=(child_conn, *worker_args), daemon=True
        )
        self.proc.start()
        child_conn.close()

    def send(self, msg: Tuple[Any, ...]) -> None:
        self.conn.send(msg)

    def recv(self) -> Tuple[Any, ...]:
        """One message within the barrier deadline."""
        deadline = time.monotonic() + self.timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                raise ShardWorkerError(f"shard {self.index} missed barrier deadline")
            try:
                if self.conn.poll(min(remaining, 0.25)):
                    msg = self.conn.recv()
                    break
            except (EOFError, OSError) as exc:
                raise ShardWorkerError(f"shard {self.index} pipe failed: {exc!r}")
            if not self.proc.is_alive():
                raise ShardWorkerError(f"shard {self.index} died (exitcode={self.proc.exitcode})")
        if msg[0] == "error":
            raise ShardWorkerError(f"shard {self.index} errored: {msg[2]}")
        return msg


def _kill_pool(shards: List[_PoolShard]) -> None:
    for shard in shards:
        try:
            shard.conn.close()
        except OSError:
            pass
    for shard in shards:
        if shard.proc.is_alive():
            shard.proc.terminate()
    for shard in shards:
        shard.proc.join(timeout=2.0)
        if shard.proc.is_alive():  # pragma: no cover - stuck worker
            shard.proc.kill()
            shard.proc.join(timeout=2.0)


def _expect(shard: Any, tag: str) -> Tuple[Any, ...]:
    msg = shard.recv()
    if msg[0] != tag:
        raise ShardWorkerError(f"shard {shard.index}: expected {tag}, got {msg[0]!r}")
    return msg


class ShardedSimulator:
    """Coordinator for a multi-process (or inline) sharded run."""

    def __init__(
        self,
        spec: ShardScenarioSpec,
        plan: ShardPlan = ShardPlan(),
        *,
        mode: str = "fork",
        collect_trace: bool = True,
        barrier_timeout_s: float = 120.0,
        max_retries: int = 1,
    ):
        if mode not in ("fork", "inline"):
            raise ShardConfigError(f"unknown mode {mode!r}")
        if mode == "inline" and spec.chaos_crash is not None:
            raise ShardConfigError("chaos_crash hard-kills its process; use fork mode")
        spec.validate()
        plan.validate()
        self.spec = spec
        self.plan = plan
        self.mode = mode
        self.collect_trace = collect_trace
        self.barrier_timeout_s = barrier_timeout_s
        self.max_retries = max_retries

    # ---------------------------------------------------------------- public

    def run(self, until: float) -> ShardRunResult:
        """Advance every shard to ``until``; return the merged result."""
        if not (until > 0.0) or not math.isfinite(until):
            raise ShardConfigError(f"until must be finite and > 0, got {until}")
        if self.plan.n_shards == 1:
            return run_serial(self.spec, until, collect_trace=self.collect_trace)
        retries = 0
        while True:
            try:
                result = self._run(until)
                result.retries = retries
                return result
            except ShardWorkerError:
                retries += 1
                if retries > self.max_retries:
                    raise

    def run_verified(
        self,
        until: float,
        *,
        report_dir: str = "divergence-report",
        checkpoint_interval_s: Optional[float] = None,
    ) -> ShardRunResult:
        """Run sharded, then verify against the serial reference.

        On a fingerprint mismatch both merged streams are dumped to
        ``report_dir`` (NDJSON exports + RunManifests + a
        ``divergence.json`` naming the first divergent event and its
        owning shard — see :func:`repro.obs.forensics.dump_divergence`)
        and :class:`ShardDivergenceError` is raised.  On agreement the
        sharded result is returned untouched.
        """
        sharded = self.run(until)
        serial = run_serial(
            self.spec,
            until,
            collect_trace=self.collect_trace,
            checkpoint_interval_s=checkpoint_interval_s,
        )
        if serial.fingerprint() == sharded.fingerprint():
            return sharded
        # Imported lazily: the forensics layer only loads on the failure
        # path, keeping the happy path's import surface unchanged.
        from repro.obs.forensics import dump_divergence

        report = dump_divergence(
            serial, sharded, self.spec, self.plan, until, report_dir
        )
        first = (report.get("diff") or {}).get("first_divergence") or {}
        where = (
            f"t={first.get('time'):g} {first.get('category')} "
            f"(shard {first.get('owning_shard')})"
            if first
            else "streams differ only in cardinality"
        )
        raise ShardDivergenceError(
            f"sharded run diverged from serial reference at {where}; "
            f"full dump in {report['report_path']}",
            report,
        )

    # ---------------------------------------------------------------- shared

    def _resolve_window(self, lookahead: float) -> float:
        if not math.isfinite(lookahead) or lookahead <= 0.0:
            raise ShardConfigError(
                f"degenerate lookahead {lookahead!r}: the world admits "
                "zero-delay cross-shard interaction"
            )
        window = self.plan.window_s
        if window is None:
            # Half the lookahead: correct at any value <= lookahead, and
            # the margin keeps barrier-edge deliveries strictly interior.
            return lookahead / 2.0
        if window > lookahead:
            raise ShardConfigError(
                f"window_s={window} exceeds the conservative lookahead "
                f"{lookahead:.6g}s; handoffs would arrive late"
            )
        return window

    @staticmethod
    def _barriers(until: float, window: float) -> List[float]:
        n = int(math.ceil(until / window))
        if n > MAX_WINDOWS:
            raise ShardConfigError(
                f"{n} windows of {window:.3g}s to reach t={until}: raise "
                "window_s / bitrate_cap or lower the horizon"
            )
        return [min(until, (j + 1) * window) for j in range(n)]

    def _lifecycle_buckets(self, barriers: List[float]) -> List[List[Tuple[float, int, bool]]]:
        """Bucket spec lifecycle events by the window containing them;
        events beyond the horizon are dropped, as a serial run drops them."""
        buckets: List[List[Tuple[float, int, bool]]] = [[] for _ in barriers]
        for event in sorted(self.spec.lifecycle):
            j = bisect_left(barriers, event[0])  # the first barrier at or after it
            if j < len(barriers):
                buckets[j].append(event)
        return buckets

    def _run(self, until: float) -> ShardRunResult:
        """One attempt: handshake, window barriers, finish, merge."""
        k = self.plan.n_shards
        t0 = time.perf_counter()
        shards: List[Any] = []
        try:
            for i in range(k):
                args = (self.spec, self.plan, i, self.collect_trace)
                if self.mode == "inline":
                    shards.append(_InlineShard(*args))
                else:
                    shards.append(_PoolShard(args, self.barrier_timeout_s))
            lookahead = min(_expect(shard, "ready")[2] for shard in shards)
            window = self._resolve_window(lookahead)
            barriers = self._barriers(until, window)
            buckets = self._lifecycle_buckets(barriers)
            inboxes: List[List[Any]] = [[] for _ in range(k)]
            for j, t_end in enumerate(barriers):
                for shard, inbox in zip(shards, inboxes):
                    shard.send(("window", t_end, inbox, buckets[j]))
                inboxes = [[] for _ in range(k)]
                for shard in shards:
                    for handoff in _expect(shard, "done")[2]:
                        inboxes[handoff[4]].append(handoff)
            for shard in shards:
                shard.send(("finish",))
            payloads = [_expect(shard, "result")[2] for shard in shards]
        except OSError as exc:
            if self.mode == "inline":
                raise
            raise ShardWorkerError(f"pool pipe failure: {exc!r}")
        finally:
            if self.mode == "fork":
                _kill_pool(shards)
        wall = time.perf_counter() - t0
        return _merged(
            until, self.mode, payloads, wall, self.collect_trace, lookahead, window, len(barriers)
        )

"""Declarative, picklable descriptions of sharded runs.

A sharded run is *replicated-world, partitioned-execution*: every worker
rebuilds the identical world from the same spec and seed, then only acts
for the nodes its shard owns.  That replication demands that everything a
worker needs is a frozen value object that pickles cleanly and hashes
stably — no live simulator state ever crosses a pipe except window-barrier
messages.

Three spec families live here:

* :class:`ShardScenarioSpec` — the world: an urban
  :class:`~repro.scenarios.builder.ScenarioBuilder` world or a uniform
  jittered grid (the benchmark's 1k–10k-node worlds), plus the stack
  (router/MAC from the PR5 registry), a synthetic workload, optional
  fault plans, and optional node-lifecycle events.
* :class:`ShardPlan` — how to cut it: shard count, partition cell size
  and seed, and an optional explicit window length.  Because these are
  frozen dataclasses, embedding a plan in a campaign task config flows
  straight into :func:`repro.campaign.spec.config_key`, so sharded and
  serial results get distinct content-addressed cache keys.
* The workload/fault sub-specs both of those compose.

``validate()`` rejects anything that is not shard-safe: routers outside
``SHARD_SAFE_ROUTERS`` (``geo``'s draws from a sequential stream and
``epidemic``'s and ``spray_wait``'s reads of a peer's bundle store are
partition-coupled; ``tests/shard/test_spec.py`` names each),
transports (their timers and ACK packets are unaudited for replication),
and gremlin fault injection (draws from a sequential stream on the hot
path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "ShardConfigError",
    "SHARD_SAFE_ROUTERS",
    "SHARD_SAFE_MACS",
    "WorkloadSpec",
    "ChurnSpec",
    "LinkFlapSpec",
    "FaultPlanSpec",
    "ShardScenarioSpec",
    "ShardPlan",
]


class ShardConfigError(ValueError):
    """A spec that cannot run sharded (or cannot run at all)."""


#: Routers whose per-node state is only ever mutated receive-side (in the
#: owner's shard) and whose draws go through the keyed hop RNG.  ``None``
#: (raw link-layer sends) is always allowed.
SHARD_SAFE_ROUTERS = ("flooding", "aodv")

#: MACs that draw only via ``ctx.rng``.
SHARD_SAFE_MACS = ("csma",)


@dataclass(frozen=True)
class WorkloadSpec:
    """Synthetic traffic: every ``sender_stride``-th node originates.

    ``kind``:

    * ``"beacons"`` — periodic router broadcasts (flooded when the router
      floods); the situational-awareness beaconing pattern.
    * ``"unicast"`` — periodic datagrams to a seed-derived fixed partner
      anywhere in the world (exercises multi-hop routing).
    * ``"local"`` — periodic datagrams to the sender's nearest neighbor
      (the benchmark's mostly-shard-local pattern).
    """

    kind: str = "beacons"
    rate_hz: float = 1.0
    size_bits: int = 2048
    ttl: int = 8
    sender_stride: int = 1
    start_s: float = 0.1

    def validate(self) -> None:
        if self.kind not in ("beacons", "unicast", "local"):
            raise ShardConfigError(f"unknown workload kind {self.kind!r}")
        if self.rate_hz <= 0.0:
            raise ShardConfigError("workload rate_hz must be > 0")
        if self.size_bits <= 0:
            raise ShardConfigError("workload size_bits must be > 0")
        if self.sender_stride < 1:
            raise ShardConfigError("workload sender_stride must be >= 1")
        if self.start_s <= 0.0:
            raise ShardConfigError(
                "workload start_s must be > 0 (time 0 is the build barrier)"
            )


@dataclass(frozen=True)
class ChurnSpec:
    """Replicated :class:`~repro.faults.faults.NodeChurnFault` plan."""

    start_s: float = 1.0
    duration_s: Optional[float] = None
    mtbf_s: float = 30.0
    mean_downtime_s: float = 5.0


@dataclass(frozen=True)
class LinkFlapSpec:
    """Replicated :class:`~repro.faults.faults.LinkFlapFault` plan."""

    start_s: float = 1.0
    duration_s: Optional[float] = None
    n_links: int = 4
    mtbf_s: float = 10.0
    mean_downtime_s: float = 2.0


@dataclass(frozen=True)
class FaultPlanSpec:
    """Faults to inject — replicated identically in every shard.

    Fault processes draw from their own named streams and mutate only
    replicated state (node liveness, blocked links), so running them in
    every worker keeps the worlds in lockstep without any cross-shard
    coordination.  Caveat: AODV's ``on_node_state`` sequence bumps read
    shard-local routing tables, so churn is only fingerprint-stable under
    stateless routers (flooding); pair AODV with link flaps instead.
    """

    churn: Optional[ChurnSpec] = None
    link_flap: Optional[LinkFlapSpec] = None


@dataclass(frozen=True)
class ShardScenarioSpec:
    """One shardable world, complete enough to rebuild in any process."""

    seed: int = 0
    kind: str = "urban"  # "urban" (ScenarioBuilder) or "uniform" (bench grid)

    # Urban world knobs (ScenarioBuilder passthrough).
    blocks: int = 4
    block_size_m: float = 80.0
    density: float = 0.3
    n_blue: int = 24
    n_red: int = 0
    n_gray: int = 0
    mobile_fraction: float = 0.0
    mobility_period_s: float = 1.0

    # Uniform-grid world knobs.
    n_nodes: int = 100
    spacing_m: float = 60.0
    jitter_m: float = 8.0
    tx_power_dbm: float = 20.0
    bitrate_bps: float = 2.5e5

    #: Clamp every node's bitrate to this ceiling after the build.  The
    #: conservative lookahead is ``min packet bits / max node bitrate``;
    #: one 100 Mbps edge-cloud node would otherwise shrink every window
    #: to microseconds.  ``None`` leaves profile bitrates untouched.
    bitrate_cap_bps: Optional[float] = None

    router: Optional[str] = "flooding"
    mac: str = "csma"
    router_params: Tuple[Tuple[str, Any], ...] = ()
    mac_params: Tuple[Tuple[str, Any], ...] = ()

    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    faults: Optional[FaultPlanSpec] = None

    #: Externally injected node-lifecycle events ``(time_s, node_id, up)``.
    #: The coordinator ships each one to *every* shard in the window
    #: message that covers its timestamp — the pipe-borne lifecycle path.
    lifecycle: Tuple[Tuple[float, int, bool], ...] = ()

    #: Test-only chaos hook: ``(shard_index, time_s, sentinel_path)``.
    #: The matching worker hard-exits at ``time_s`` unless the sentinel
    #: file exists (it creates it first), so exactly one attempt dies —
    #: the kill-and-retry drill.
    chaos_crash: Optional[Tuple[int, float, str]] = None

    def validate(self) -> None:
        if self.kind not in ("urban", "uniform"):
            raise ShardConfigError(f"unknown world kind {self.kind!r}")
        if self.router is not None and self.router not in SHARD_SAFE_ROUTERS:
            raise ShardConfigError(
                f"router {self.router!r} is not shard-safe; "
                f"allowed: {SHARD_SAFE_ROUTERS} or None"
            )
        if self.mac not in SHARD_SAFE_MACS:
            raise ShardConfigError(
                f"mac {self.mac!r} is not shard-safe; allowed: {SHARD_SAFE_MACS}"
            )
        if self.kind == "uniform" and self.n_nodes < 1:
            raise ShardConfigError("uniform world needs n_nodes >= 1")
        if self.kind == "uniform" and self.mobile_fraction > 0.0:
            raise ShardConfigError("uniform worlds are static")
        if self.workload.kind == "unicast" and self.router is None:
            raise ShardConfigError(
                "unicast workload needs a router (use 'local' for raw sends)"
            )
        if self.workload.kind == "beacons" and self.router == "aodv":
            raise ShardConfigError(
                "aodv is a unicast protocol; beacons need flooding or no router"
            )
        self.workload.validate()
        for t, _node, _up in self.lifecycle:
            if t <= 0.0:
                raise ShardConfigError(
                    "lifecycle events must have time > 0 (the build barrier)"
                )
        if (
            self.faults is not None
            and self.faults.churn is not None
            and self.router == "aodv"
        ):
            raise ShardConfigError(
                "aodv + node churn is not fingerprint-stable sharded "
                "(on_node_state reads shard-local tables); use link_flap "
                "faults with aodv, or the flooding router with churn"
            )

    def router_param_dict(self) -> Dict[str, Any]:
        params = dict(self.router_params)
        if self.router == "aodv":
            # Intermediate cache replies read the serial-only global
            # sequence oracle; RFC 3561's D-flag removes that read.
            params.setdefault("destination_only", True)
        return params

    def mac_param_dict(self) -> Dict[str, Any]:
        return dict(self.mac_params)


@dataclass(frozen=True)
class ShardPlan:
    """How to cut a world: the cache-key-relevant half of a sharded run.

    Execution mode (fork / inline) deliberately lives on the
    engine, not here: a plan describes *what* is computed — and sharded
    results are fingerprint-equal across modes — while the mode only
    describes *where*.  Embed a plan (or its ``n_shards`` /
    ``partition_seed`` fields) in campaign task params and the
    content-addressed key changes whenever the cut does.
    """

    n_shards: int = 1
    cell_size_m: Optional[float] = None
    partition_seed: int = 0
    window_s: Optional[float] = None

    def validate(self) -> None:
        if self.n_shards < 1:
            raise ShardConfigError("n_shards must be >= 1")
        if self.cell_size_m is not None and not self.cell_size_m > 0.0:
            raise ShardConfigError("cell_size_m must be > 0")
        if self.window_s is not None and not self.window_s > 0.0:
            raise ShardConfigError("window_s must be > 0")

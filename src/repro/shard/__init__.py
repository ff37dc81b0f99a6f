"""Sharded simulation: multi-process battlefield worlds, conservative sync.

The single-process :class:`~repro.sim.kernel.Simulator` caps worlds at one
core's event rate; the paper's 10k-node inventories (and the IoBT
literature's "millions of things") need more.  :mod:`repro.shard` runs one
simulator replica per spatial shard — partitioned by
:func:`repro.net.topology.partition_network` — in its own worker process,
synchronized at conservative time-window barriers with lookahead derived
from the minimum cross-shard packet airtime and propagation delay.

Entry points:

* :class:`ShardScenarioSpec` / :class:`ShardPlan` — declarative world +
  cut descriptions (frozen, picklable, cache-key-hashable).
* :class:`ShardedSimulator` — the coordinator; ``run(until=...)`` like a
  plain simulator, returning a :class:`ShardRunResult` with the merged
  trace, counters, and a partition-invariant ``fingerprint()``.
* :func:`run_serial` — the 1-shard reference with identical keyed-RNG
  semantics; serial and sharded fingerprints of the same spec are equal.

>>> from repro.shard import ShardPlan, ShardScenarioSpec, ShardedSimulator, run_serial
>>> spec = ShardScenarioSpec(seed=7, bitrate_cap_bps=5e4)
>>> serial = run_serial(spec, until=2.0)
>>> sharded = ShardedSimulator(spec, ShardPlan(n_shards=4), mode="inline").run(until=2.0)
>>> assert serial.fingerprint() == sharded.fingerprint()
"""

from repro.shard.dispatch import ShardTraceLog
from repro.shard.engine import (
    ShardedSimulator,
    ShardRunResult,
    ShardWorkerError,
    run_serial,
)
from repro.shard.rng import KeyedHopRng
from repro.shard.runtime import ShardRuntime
from repro.shard.spec import (
    SHARD_SAFE_MACS,
    SHARD_SAFE_ROUTERS,
    ChurnSpec,
    FaultPlanSpec,
    LinkFlapSpec,
    ShardConfigError,
    ShardPlan,
    ShardScenarioSpec,
    WorkloadSpec,
)

__all__ = [
    "ShardedSimulator",
    "ShardRunResult",
    "ShardWorkerError",
    "run_serial",
    "ShardRuntime",
    "ShardTraceLog",
    "KeyedHopRng",
    "ShardScenarioSpec",
    "ShardPlan",
    "WorkloadSpec",
    "ChurnSpec",
    "LinkFlapSpec",
    "FaultPlanSpec",
    "ShardConfigError",
    "SHARD_SAFE_ROUTERS",
    "SHARD_SAFE_MACS",
]

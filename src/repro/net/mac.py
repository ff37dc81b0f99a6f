"""A lightweight contention MAC model.

Rather than simulating CSMA slot-by-slot (which would dominate runtime at
10,000 nodes), the MAC charges each transmission a contention delay and a
collision-loss probability derived from the sender's local neighborhood
load.  This is the standard mean-field shortcut: per-packet cost grows with
local density and offered load, which is the effect the IoBT arguments need
(disadvantaged, congested networks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.net.registry import register

__all__ = ["ContentionMac", "IdealMac", "MacAccess"]


class MacAccess(NamedTuple):
    """One channel-access grant: the backoff charged and the collision
    survival probability at the load observed when access was requested.

    Bundling the pair keeps the transmit paths (and the packet tracer's
    per-hop latency attribution) working from a single consistent sample
    of neighborhood load.  A named tuple: immutable, and the dispatchers
    unpack it as ``backoff, survival = grant``.
    """

    backoff_s: float
    collision_survival: float


@dataclass
class ContentionMac:
    """Mean-field contention MAC.

    Parameters
    ----------
    slot_time_s:
        Base backoff slot length.
    mean_backoff_slots:
        Mean of the exponential backoff draw at zero load.
    load_factor:
        How steeply backoff grows with busy neighbors (per neighbor).
    collision_rho:
        Per-neighbor probability of overlapping a given transmission;
        collision survival is ``(1 - rho)^k`` for ``k`` busy neighbors.
    """

    name = "csma"

    slot_time_s: float = 0.001
    mean_backoff_slots: float = 4.0
    load_factor: float = 0.15
    collision_rho: float = 0.02

    def __post_init__(self) -> None:
        if self.slot_time_s <= 0:
            raise ConfigurationError("slot_time_s must be positive")
        if not (0.0 <= self.collision_rho < 1.0):
            raise ConfigurationError("collision_rho must be in [0, 1)")

    def access_delay(self, busy_neighbors: int, rng: np.random.Generator) -> float:
        """Random channel-access delay given ``busy_neighbors`` contenders."""
        mean_slots = self.mean_backoff_slots * (
            1.0 + self.load_factor * max(0, busy_neighbors)
        )
        return float(rng.exponential(mean_slots * self.slot_time_s))

    def collision_survival(self, busy_neighbors: int) -> float:
        """Probability the transmission is not destroyed by a collision."""
        k = max(0, busy_neighbors)
        return (1.0 - self.collision_rho) ** k

    def access(self, busy_neighbors: int, rng: np.random.Generator) -> MacAccess:
        """Draw one channel access: backoff plus survival, as a pair.

        :meth:`access_delay` and :meth:`collision_survival` in one frame,
        with the same arithmetic, so the pair is theirs bit for bit.
        Exactly one RNG draw (the backoff), so substituting this for a
        bare :meth:`access_delay` call leaves RNG streams bit-identical.
        """
        k = busy_neighbors if busy_neighbors > 0 else 0
        return MacAccess(
            float(
                rng.exponential(
                    self.mean_backoff_slots * (1.0 + self.load_factor * k) * self.slot_time_s
                )
            ),
            (1.0 - self.collision_rho) ** k,
        )


@dataclass
class IdealMac:
    """A contention-free MAC: zero backoff, no collision losses.

    Useful as the control arm in campaign sweeps (isolates routing effects
    from MAC contention) and as the simplest example of an alternate
    registry backend.  ``access`` consumes **no** RNG draws, so swapping
    MACs changes the composition, not just parameters — cache keys and
    fingerprints differ by design.
    """

    name = "ideal"

    def access_delay(self, busy_neighbors: int, rng: np.random.Generator) -> float:
        return 0.0

    def collision_survival(self, busy_neighbors: int) -> float:
        return 1.0

    def access(self, busy_neighbors: int, rng: np.random.Generator) -> MacAccess:
        return MacAccess(backoff_s=0.0, collision_survival=1.0)


register("mac", ContentionMac.name, ContentionMac)
register("mac", IdealMac.name, IdealMac)
